//! `perfbench`: the compiled half of the owner-side benchmark (`run.py`
//! builds it and runs the workloads). Subcommands:
//!
//! ```text
//! perfbench setup --seed N --dir D            generate every input from the seed
//! perfbench replay-provision --vault V --out-dir O --devices N --shards S
//! perfbench replay-forensic --vault V --manifest M --suspect S
//!                                             traced replays of the one-shot commands
//! perfbench serve --emmark BIN --inputs D --work W --seed N --seconds T
//!                 --trace 0|1 --setup-reps K  the emmarkd open-loop workload
//! ```
//!
//! Each prints one JSON object as its last stdout line.

mod replay;
mod serve;
mod setup;
mod trace;
mod util;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!(
            "usage: perfbench <setup|replay-provision|replay-forensic|serve> [--key value]..."
        );
        return ExitCode::FAILURE;
    };
    let result = util::Args::parse(rest).and_then(|opts| match command.as_str() {
        "setup" => setup::run(&opts),
        "replay-provision" => replay::provision(&opts),
        "replay-forensic" => replay::forensic(&opts),
        "serve" => serve::run(&opts),
        other => Err(format!("unknown subcommand `{other}`")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench {command}: {msg}");
            ExitCode::FAILURE
        }
    }
}
