//! Open-loop classify load: one persistent connection whose writer
//! thread sends frames on a fixed schedule while a reader thread takes
//! the replies, plus a trickle of one-shot connections that connect,
//! classify once and close, as `darkvec query` does. Every latency is
//! timed from the request's scheduled send time, so a stall also counts
//! against the requests queued behind it. [`Burst`] drives a second
//! persistent connection at saturation.

use darkvec::protocol::{
    decode_response, encode_request, read_frame, write_frame, Request, Response,
};
use darkvec::Client;
use darkvec_types::{Ipv4, Protocol};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Neighbours asked for in every classify request.
pub const K: u16 = 7;

/// One request of the mix.
#[derive(Clone, Debug)]
pub struct Query {
    pub ip: Ipv4,
    pub ports: Vec<(u16, Protocol)>,
    /// A sender the first model did not embed: answered through the
    /// service centroids, or refused.
    pub fallback: bool,
}

impl Query {
    pub fn request(&self) -> Request {
        Request::Classify {
            ip: self.ip,
            ports: self.ports.clone(),
            k: K,
        }
    }
}

/// A span of the schedule at one rate.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub rate: f64,
    pub secs: f64,
}

/// How the daemon answered a request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Status {
    Ok,
    /// An error reply from the daemon (a refusal).
    Refused,
    /// No reply: the connection failed.
    Failed,
}

/// One answered request.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Index into the query pool.
    pub query: usize,
    /// Scheduled send time, seconds since the load's epoch.
    pub due: f64,
    /// Reply received, seconds since the load's epoch.
    pub done: f64,
    /// How late the writer sent it, microseconds.
    pub late_us: f64,
    pub status: Status,
    pub version: u64,
    pub checksum: u64,
    /// Label and neighbour senders, kept for sampled requests only.
    pub answer: Option<(String, Vec<Ipv4>)>,
}

impl Reply {
    pub fn latency_us(&self) -> f64 {
        (self.done - self.due) * 1e6
    }
}

/// Sleeps until `due` seconds after `t0`. Only sleeps: a spinning
/// generator would take a core from the daemon it is measuring.
fn wait_until(t0: Instant, due: f64) {
    let left = due - t0.elapsed().as_secs_f64();
    if left > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(left));
    }
}

/// Asks the kernel to wake this thread's sleeps on time instead of up
/// to the default 50 us timer slack late.
#[cfg(target_os = "linux")]
fn tight_timer() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // changes the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

#[cfg(not(target_os = "linux"))]
fn tight_timer() {}

/// A running persistent-connection load.
pub struct Stream {
    writer: JoinHandle<Result<(), String>>,
    reader: JoinHandle<Result<Vec<Reply>, String>>,
}

impl Stream {
    /// Starts the load: request `i` is `pool[i % pool.len()]`, sent on the
    /// schedule the phases give, starting at `t0`. Every `sample_every`-th
    /// reply keeps its label and neighbours for the output check.
    pub fn start(
        addr: SocketAddr,
        pool: Arc<Vec<Query>>,
        phases: Vec<Phase>,
        t0: Instant,
        sample_every: usize,
    ) -> Result<Stream, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        let frames: Vec<Vec<u8>> = pool.iter().map(|q| encode_request(&q.request())).collect();
        let (tx, rx) = channel::<(usize, f64, f64)>();
        let writer = std::thread::Builder::new()
            .name("load-writer".into())
            .spawn(move || {
                tight_timer();
                let mut stream = stream;
                let mut i = 0usize;
                let mut start = 0.0;
                for phase in phases {
                    let n = (phase.rate * phase.secs).round() as usize;
                    for j in 0..n {
                        let due = start + j as f64 / phase.rate;
                        wait_until(t0, due);
                        let late = t0.elapsed().as_secs_f64() - due;
                        let _ = tx.send((i, due, late));
                        write_frame(&mut stream, &frames[i % frames.len()])
                            .map_err(|e| format!("send: {e}"))?;
                        i += 1;
                    }
                    start += phase.secs;
                }
                Ok(())
            })
            .map_err(|e| e.to_string())?;
        let reader = std::thread::Builder::new()
            .name("load-reader".into())
            .spawn(move || {
                let mut reader = BufReader::new(read_half);
                let mut replies = Vec::new();
                for (i, due, late) in rx {
                    let payload = read_frame(&mut reader).map_err(|e| format!("recv: {e}"))?;
                    let done = t0.elapsed().as_secs_f64();
                    let query = i % pool.len();
                    let mut reply = Reply {
                        query,
                        due,
                        done,
                        late_us: late * 1e6,
                        status: Status::Refused,
                        version: 0,
                        checksum: 0,
                        answer: None,
                    };
                    match decode_response(&payload).map_err(|e| format!("decode: {e}"))? {
                        Response::Classify(r) => {
                            reply.status = Status::Ok;
                            reply.version = r.version;
                            reply.checksum = r.checksum;
                            if i % sample_every == 0 {
                                let ips = r.neighbors.iter().map(|n| n.0).collect();
                                reply.answer = Some((r.label, ips));
                            }
                        }
                        Response::Error(_) => {}
                        other => return Err(format!("unexpected reply {other:?}")),
                    }
                    replies.push(reply);
                }
                Ok(replies)
            })
            .map_err(|e| e.to_string())?;
        Ok(Stream { writer, reader })
    }

    /// Waits for the schedule to end and every reply to arrive.
    pub fn join(self) -> Result<Vec<Reply>, String> {
        let wrote = self
            .writer
            .join()
            .map_err(|_| "writer panicked".to_string())?;
        let replies = self
            .reader
            .join()
            .map_err(|_| "reader panicked".to_string())?;
        wrote?;
        replies
    }
}

/// One one-shot client: scheduled time, completion time (seconds since
/// the load's epoch), the query it asked and how it was answered.
#[derive(Clone, Copy, Debug)]
pub struct OneShot {
    pub due: f64,
    pub done: f64,
    pub query: usize,
    pub status: Status,
    pub version: u64,
    pub checksum: u64,
}

/// Starts a trickle of one-shot clients with exponential gaps of mean
/// `1 / rate`, until `until` seconds after `t0`. The gaps are seeded, and
/// random so that arrivals do not lock onto the daemon's accept poll.
pub fn one_shots(
    addr: SocketAddr,
    pool: Arc<Vec<Query>>,
    rate: f64,
    until: f64,
    t0: Instant,
    seed: u64,
) -> JoinHandle<Vec<OneShot>> {
    std::thread::spawn(move || {
        tight_timer();
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut due = 0.0;
        let mut out = Vec::new();
        loop {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let u = ((rng >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
            due += -u.ln() / rate;
            if due >= until {
                return out;
            }
            wait_until(t0, due);
            let query = (rng as usize >> 3) % pool.len();
            let q = &pool[query];
            let answer = Client::connect(addr)
                .map_err(|e| e.to_string())
                .and_then(|mut c| c.classify(q.ip, &q.ports, K));
            let done = t0.elapsed().as_secs_f64();
            let (status, version, checksum) = match answer {
                Ok(Ok(r)) => (Status::Ok, r.version, r.checksum),
                Ok(Err(_)) => (Status::Refused, 0, 0),
                Err(_) => (Status::Failed, 0, 0),
            };
            out.push(OneShot {
                due,
                done,
                query,
                status,
                version,
                checksum,
            });
        }
    })
}

/// A burst request: its index into the query pool, and the
/// `(version, checksum)` of the model that answered it (`None` for a
/// refusal).
#[derive(Clone, Copy, Debug)]
pub struct Answer {
    pub query: usize,
    pub model: Option<(u64, u64)>,
}

/// Requests kept in flight by [`Burst`]: small enough that the frames
/// and their replies fit the socket buffers, so one thread can write a
/// batch and then read its replies without deadlock.
const BURST_DEPTH: usize = 64;

/// A persistent connection for saturation bursts: requests are written
/// back to back, `BURST_DEPTH` at a time, and the wall time per request
/// is one connection's cost per request at full load.
pub struct Burst {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    frames: Vec<Vec<u8>>,
    next: usize,
}

impl Burst {
    pub fn connect(addr: SocketAddr, pool: &[Query]) -> Result<Burst, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let frames = pool.iter().map(|q| encode_request(&q.request())).collect();
        Ok(Burst {
            stream,
            reader,
            frames,
            next: 0,
        })
    }

    /// Sends `n` requests and waits for every reply. Returns the wall
    /// time per request in microseconds and every answer.
    pub fn run(&mut self, n: usize) -> Result<(f64, Vec<Answer>), String> {
        let started = Instant::now();
        let mut answers = Vec::with_capacity(n);
        let mut sent = 0;
        while sent < n {
            let batch = BURST_DEPTH.min(n - sent);
            let first = self.next;
            for _ in 0..batch {
                let frame = &self.frames[self.next % self.frames.len()];
                self.next += 1;
                write_frame(&mut self.stream, frame).map_err(|e| format!("send: {e}"))?;
            }
            for i in first..first + batch {
                let payload = read_frame(&mut self.reader).map_err(|e| format!("recv: {e}"))?;
                let model = match decode_response(&payload).map_err(|e| format!("decode: {e}"))? {
                    Response::Classify(r) => Some((r.version, r.checksum)),
                    _ => None,
                };
                answers.push(Answer {
                    query: i % self.frames.len(),
                    model,
                });
            }
            sent += batch;
        }
        Ok((started.elapsed().as_secs_f64() * 1e6 / n as f64, answers))
    }
}
