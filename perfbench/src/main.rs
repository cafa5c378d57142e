//! `perfbench --workload <batch|serve|monitor> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host/build stamp and the workload's notes, then, as the
//! last line, one JSON object with the end-to-end metrics (or, with
//! `--trace 1`, the per-layer metrics).

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match darkvec_perfbench::Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    darkvec_obs::log::set_level(Some(darkvec_obs::log::Level::Warn));
    let outcome = darkvec_perfbench::run(&args);
    for note in &outcome.notes {
        println!("{note}");
    }
    for problem in &outcome.problems {
        println!("check failed: {problem}");
    }
    println!("{}", outcome.result_json(args.trace));
}
