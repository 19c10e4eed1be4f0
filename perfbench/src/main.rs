//! `tea-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Lines before
//! it, prefixed `#`, give the host facts and sample counts.

use std::path::PathBuf;
use std::process::ExitCode;

use tea_perfbench::{run, Spec, Workload, POOL_THREADS};

const USAGE: &str = "usage: tea-perfbench --workload <paper-256|tiled-512> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Spec, String> {
    let mut spec = Spec {
        workload: Workload::Paper,
        seed: 0,
        seconds: 0.0,
        trace: false,
        cells: None,
        hook: None,
        trace_out: None,
    };
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                spec.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    spec.workload = workload.ok_or("--workload is required")?;
    spec.seed = seed.ok_or("--seed is required")?;
    spec.seconds = seconds.ok_or("--seconds is required")?;
    if spec.trace {
        spec.trace_out = Some(
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{}.jsonl", spec.workload.name())),
        );
    }
    Ok(spec)
}

fn main() -> ExitCode {
    // Pinned before the first pool touch: the global pools read it once.
    std::env::set_var("PARPOOL_THREADS", POOL_THREADS.to_string());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse(&args) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# host: nproc={nproc} PARPOOL_THREADS={POOL_THREADS} rustc=\"{}\" workload={} seed={} seconds={} trace={}",
        env!("PERFBENCH_RUSTC"),
        spec.workload.name(),
        spec.seed,
        spec.seconds,
        u8::from(spec.trace)
    );
    match run(&spec) {
        Ok(outcome) => {
            if let Some(path) = &spec.trace_out {
                println!("# spans written to {}", path.display());
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark could not run: {e}");
            ExitCode::FAILURE
        }
    }
}
