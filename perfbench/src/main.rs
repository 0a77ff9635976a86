//! Runs one benchmark workload and prints its result as the last line of
//! standard output:
//!
//! ```text
//! perfbench --workload <lake-cold|lake-warm|lake-stream|serve-open>
//!           --seed <n> --seconds <n> --trace <0|1> [--fault-seed <n>]
//! ```
//!
//! A failed output check or accounting identity exits with code 1 and
//! prints no result.

use perfbench::{run, Settings, Workload};

fn parse(args: &[String]) -> Result<Settings, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut fault_seed = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--fault-seed" => fault_seed = Some(number()?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let mut settings = Settings::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")? as f64,
        trace,
    );
    if let Some(fault_seed) = fault_seed {
        settings.fault_seed = fault_seed;
    }
    Ok(settings)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse(&args) {
        Ok(settings) => settings,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&settings).and_then(|report| report.finish(settings.trace)) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", settings.workload.name());
            std::process::exit(1);
        }
    }
}
