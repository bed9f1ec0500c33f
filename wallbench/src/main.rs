//! `wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints host facts, notes and every metric by name and unit, then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exits 1 when a correctness check fails, 2 on a usage
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

use wallbench::report::{host_facts, Config};
use wallbench::{end_to_end, per_layer, Workload};

const USAGE: &str =
    "usage: wallbench --workload <serve-rcv1|dist-rcv1|train-covtype-sync|train-covtype-hogwild> \
     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config::new(args.seed, args.seconds);
    let name = args.workload.name();
    println!(
        "wallbench {name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for fact in host_facts(args.workload.threads()) {
        println!("host {fact}");
    }
    let out = if args.trace {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        let spans = dir.join("wallbench").join(format!("spans-{name}-seed{}.jsonl", args.seed));
        per_layer(args.workload, &cfg, Some(&spans))
    } else {
        end_to_end(args.workload, &cfg)
    };
    for note in &out.notes {
        println!("note {note}");
    }
    for m in &out.metrics {
        println!("metric {:<46} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &out.failures {
        println!("FAILED {f}");
    }
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
