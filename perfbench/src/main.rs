//! Command-line entry: see the crate docs of `oftm_perfbench`.
//!
//! ```text
//! oftm-perfbench --workload <intset-lookup|bank-async>
//!                --seed <u64> --seconds <1..=600> --trace <0|1>
//! ```
//!
//! Prints the per-backend detail and a `meta` line, then, as the last
//! line, one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 0 only when every oracle passed; 1 on a failed op or oracle;
//! 2 on a bad argument.

use oftm_perfbench::host;
use oftm_perfbench::report::{self, Args};
use oftm_perfbench::workloads::Workload;
use std::process::ExitCode;

const USAGE: &str = "usage: oftm-perfbench --workload <intset-lookup|bank-async> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val:?}"))?)
            }
            "--seed" => {
                seed = Some(
                    val.parse::<u64>()
                        .map_err(|e| format!("--seed {val:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = val
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds {val:?}: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val:?}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    host::confine_git();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let load_before = host::loadavg();
    let outcome = report::run(args);
    let load_after = host::loadavg();
    for n in &outcome.notes {
        println!("{n}");
    }
    for m in &outcome.metrics {
        println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for e in &outcome.errors {
        eprintln!("oracle: {e}");
    }
    println!(
        "{}",
        host::meta_json(
            args.seed,
            args.workload.name(),
            args.seconds,
            args.trace,
            &load_before,
            &load_after
        )
    );
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&argv(
            "--workload bank-async --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::BankAsync);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload intset-lookup --seed x --seconds 1 --trace 0",
            "--workload intset-lookup --seed 1 --seconds 0 --trace 0",
            "--workload intset-lookup --seed 1 --seconds 1 --trace 2",
            "--workload intset-lookup --seed 1 --seconds 1",
            "--workload intset-lookup --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
