//! `gridvo-vobench --workload <form_cold|form_hot|trust_write|all> --seed N
//! --seconds S --trace <0|1>`: run a workload against an in-process
//! daemon, print every metric by name with its unit and sample count,
//! and end with one JSON result line. Exits 1 when an operation failed
//! or an output check did not hold, 2 on bad arguments or a run that
//! could not be set up.

use gridvo_vobench::report;
use gridvo_vobench::workload::{self, Params, RunReport, Scale, Workload};

struct Args {
    workloads: Vec<Workload>,
    params: Params,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workloads = None;
    let mut params = Params { seed: 1, seconds: 10.0, trace: false, scale: Scale::FULL };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workloads = Some(match name.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    _ => vec![Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?],
                });
            }
            "--seed" => params.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                params.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(params.seconds > 0.0 && params.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                params.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workloads = workloads.ok_or("--workload is required")?;
    Ok(Args { workloads, params })
}

fn print_report(r: &RunReport, params: &Params) {
    println!(
        "== {} seed={} seconds={} trace={}",
        r.workload.name(),
        params.seed,
        params.seconds,
        u8::from(params.trace)
    );
    for note in &r.notes {
        println!("  note: {note}");
    }
    println!("end-to-end:");
    print!("{}", report::metric_lines(&r.end_to_end));
    if r.layers.is_empty() {
        println!("wall clock (client side, not gated):");
        print!("{}", report::metric_lines(&r.client));
    } else {
        println!("per-layer (traced replay; client.* from the timed phase):");
        print!("{}", report::metric_lines(&r.layers));
    }
    println!("  attempted={} failed={}", r.attempted, r.failed);
    for problem in &r.problems {
        eprintln!("vobench: {}: {problem}", r.workload.name());
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vobench: {e}");
            eprintln!("usage: gridvo-vobench --workload <form_cold|form_hot|trust_write|all> --seed N --seconds S --trace <0|1>");
            std::process::exit(2);
        }
    };
    println!("{}", report::host_line());
    let mut reports = Vec::new();
    for &w in &args.workloads {
        match workload::run(w, &args.params) {
            Ok(r) => {
                print_report(&r, &args.params);
                reports.push(r);
            }
            Err(e) => {
                eprintln!("vobench: {}: {e}", w.name());
                std::process::exit(2);
            }
        }
    }
    // One workload: its own metric names. `all`: prefixed by workload.
    let single = reports.len() == 1;
    let mut entries: Vec<(String, f64, &'static str)> = Vec::new();
    let mut finite = true;
    for r in &reports {
        for m in if args.params.trace { &r.layers } else { &r.end_to_end } {
            let name = if single {
                m.name.to_string()
            } else {
                format!("{}.{}", r.workload.name(), m.name)
            };
            let unit = report::def_of(m.name).map_or("", |d| d.unit);
            if !m.value.is_finite() {
                eprintln!("vobench: metric {name} is not finite");
                finite = false;
            }
            entries.push((name, if m.value.is_finite() { m.value } else { 0.0 }, unit));
        }
    }
    let correct = finite && reports.iter().all(RunReport::correct);
    let attempted = reports.iter().map(|r| r.attempted).sum();
    let failed = reports.iter().map(|r| r.failed).sum();
    println!("{}", report::result_json(correct, attempted, failed, &entries));
    if !correct {
        std::process::exit(1);
    }
}
