//! Quick-scale runs of every workload: each must pass its output
//! checks and report every metric the benchmark declares, finite.

use gridvo_vobench::report::{Better, MetricDef, END_TO_END, PER_LAYER};
use gridvo_vobench::workload::{run, Params, RunReport, Scale, Workload};

fn quick(workload: Workload, trace: bool) -> RunReport {
    let params = Params { seed: 7, seconds: 0.3, trace, scale: Scale::QUICK };
    let report = run(workload, &params).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(report.correct(), "{}: {:?}", workload.name(), report.problems);
    assert!(report.attempted > 0);
    report
}

fn value(report: &RunReport, name: &str) -> f64 {
    report
        .layers
        .iter()
        .chain(&report.end_to_end)
        .find(|m| m.name == name)
        .map(|m| m.value)
        .unwrap()
}

fn assert_complete(report: &RunReport) {
    let names: Vec<&str> = report.end_to_end.iter().map(|m| m.name).collect();
    assert_eq!(names, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
    let layers: Vec<&str> = report.layers.iter().map(|m| m.name).collect();
    assert_eq!(layers, PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>());
    for m in report.end_to_end.iter().chain(&report.layers).chain(&report.client) {
        assert!(m.value.is_finite(), "{}: {} = {}", report.workload.name(), m.name, m.value);
    }
    for m in &report.end_to_end {
        assert!(m.value > 0.0, "{}: end-to-end {} must never be 0", report.workload.name(), m.name);
    }
}

#[test]
fn form_cold_solves_every_round() {
    let r = quick(Workload::FormCold, true);
    assert_complete(&r);
    assert!(value(&r, "solver.nodes") > 0.0);
    assert_eq!(value(&r, "service.cache_hit_rate"), 0.0, "the cache is off");
    assert_eq!(value(&r, "store.fsyncs"), 0.0);
    assert_eq!(value(&r, "solver.proven_share"), 1.0);
    assert_eq!(value(&r, "client.read_ms"), 0.0, "one client, no reads");
}

#[test]
fn form_hot_hits_the_cache_for_every_round() {
    let r = quick(Workload::FormHot, true);
    assert_complete(&r);
    assert_eq!(value(&r, "service.cache_hit_rate"), 1.0);
    assert_eq!(value(&r, "solver.nodes"), 0.0, "a fully cached run solves nothing");
}

#[test]
fn trust_write_journals_and_never_solves() {
    let r = quick(Workload::TrustWrite, true);
    assert_complete(&r);
    assert_eq!(value(&r, "solver.nodes"), 0.0);
    assert!(value(&r, "store.journal_bytes") > 0.0);
    assert!(value(&r, "service.snapshot_build_us") > 0.0);
    assert!(value(&r, "service.registry_apply_us") > 0.0);
    assert!(value(&r, "store.append_us") > 0.0);
    assert!(value(&r, "client.read_ms") > 0.0, "the second client reads beside the writes");
}

#[test]
fn untraced_runs_report_end_to_end_metrics_only() {
    let r = quick(Workload::TrustWrite, false);
    assert!(r.layers.is_empty());
    assert_eq!(r.end_to_end.len(), END_TO_END.len());
}

#[test]
fn benchmark_json_declares_exactly_these_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let section = |name: &str, next: &str| -> String {
        let start = text.find(&format!("\"{name}\"")).unwrap();
        let end = text[start..].find(&format!("\"{next}\"")).map_or(text.len(), |e| start + e);
        text[start..end].to_string()
    };
    let names = |section: &str| -> Vec<String> {
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    };
    let check = |defs: &[MetricDef], section: &str| {
        let declared = names(section);
        assert_eq!(declared, defs.iter().map(|d| d.name).collect::<Vec<_>>());
        for d in defs {
            let better = match d.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                d.name, d.unit
            );
            assert!(section.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    };
    check(&END_TO_END, &section("end_to_end", "per_layer"));
    check(&PER_LAYER, &section("per_layer", "no-further-key"));
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names(&section("workloads", "end_to_end")), workloads);
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let bin = env!("CARGO_BIN_EXE_gridvo-vobench");
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "form_cold", "--trace", "2"][..],
    ] {
        let out = std::process::Command::new(bin).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""), "{args:?}");
    }
}
