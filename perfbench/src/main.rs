//! One benchmark for the three user paths of the Staccato system: the
//! paper's Table 4 grid (`paper_t4`), a document to its durable ack
//! (`ingest_durable`), and an HTTP request to its response
//! (`http_mixed`).
//!
//! ```text
//! staccato-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones ([`END_TO_END`]); with `--trace 1`
//! the run measures the workload untraced for half the time and traced
//! for the other half, and reports the per-layer ones ([`PER_LAYER`]),
//! writing its spans to `.bench_work/traces/`. Stores and WALs live in
//! `.bench_work/` under the working directory and are removed at exit.

mod check;
mod http_mixed;
mod ingest_durable;
mod paper_t4;
mod summary;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use summary::json_str;
use trace::Tracer;
use workload::{Config, Outcome};

pub const WORKLOADS: [&str; 3] = ["paper_t4", "ingest_durable", "http_mixed"];

/// End-to-end metrics, `(name, unit)`; every workload reports each.
/// `ops_per_s` and `op_p50_ms` are the workload's own operation:
/// statements and grid rounds (`paper_t4`), durably acknowledged
/// documents and batch acks (`ingest_durable`), completed requests and
/// reads timed from their due time (`http_mixed`, where `op_p50_ms` is
/// the geometric mean of the four representations' medians). Their p99
/// is printed with its sample count and reported as `bench.op_p99_ms`
/// in a traced run: on a shared 2-vCPU host its run-to-run spread
/// exceeds any bound the benchmark may set.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("t4_ms.map", "ms"),
    ("t4_ms.kmap", "ms"),
    ("t4_ms.fullsfa", "ms"),
    ("t4_ms.staccato", "ms"),
    ("recall.staccato", "ratio"),
    ("precision.staccato", "ratio"),
    ("bytes_per_text_byte", "ratio"),
];

/// Per-layer metrics, `(name, unit)`. A layer a workload does not
/// exercise reads 0.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("storage.pool_hit_rate", "ratio"),
    ("storage.pool_misses_per_stmt", "count"),
    ("storage.read_writebacks", "count"),
    ("storage.fetches_per_batch", "count"),
    ("storage.fetches_per_batch_growth", "ratio"),
    ("storage.blob_read_ns_per_line.fullsfa", "ns"),
    ("storage.blob_read_ns_per_line.staccato", "ns"),
    ("storage.wal_batches_per_fsync", "ratio"),
    ("storage.wal_flush_wait_p50_ms", "ms"),
    ("storage.wal_flush_wait_p99_ms", "ms"),
    ("storage.wal_bytes_per_doc", "bytes"),
    ("storage.checkpoints", "count"),
    ("storage.segments_deleted", "count"),
    ("storage.recovery_s", "s"),
    ("sfa.decode_ns_per_line.fullsfa", "ns"),
    ("sfa.decode_ns_per_line.staccato", "ns"),
    ("sfa.blob_bytes_per_line.fullsfa", "bytes"),
    ("sfa.blob_bytes_per_line.staccato", "bytes"),
    ("sfa.kbest_us_per_doc", "us"),
    ("sfa.encode_us_per_doc", "us"),
    ("ocr.channel_us_per_doc", "us"),
    ("core.approximate_us_per_doc", "us"),
    ("automata.compile_us", "us"),
    ("query.exec_ms.map", "ms"),
    ("query.exec_ms.kmap", "ms"),
    ("query.exec_ms.fullsfa", "ms"),
    ("query.exec_ms.staccato", "ms"),
    ("query.stmt_p99_ms.map", "ms"),
    ("query.stmt_p99_ms.kmap", "ms"),
    ("query.stmt_p99_ms.fullsfa", "ms"),
    ("query.stmt_p99_ms.staccato", "ms"),
    ("query.prescreen_skip_rate.map", "ratio"),
    ("query.prescreen_skip_rate.kmap", "ratio"),
    ("query.prescreen_skip_rate.fullsfa", "ratio"),
    ("query.prescreen_skip_rate.staccato", "ratio"),
    ("query.lines_evaluated_per_line.map", "ratio"),
    ("query.lines_evaluated_per_line.kmap", "ratio"),
    ("query.lines_evaluated_per_line.fullsfa", "ratio"),
    ("query.lines_evaluated_per_line.staccato", "ratio"),
    ("query.kernel_ns_per_line.map", "ns"),
    ("query.kernel_ns_per_line.kmap", "ns"),
    ("query.kernel_ns_per_line.fullsfa", "ns"),
    ("query.kernel_ns_per_line.staccato", "ns"),
    ("query.accounted_fraction.fullsfa", "ratio"),
    ("query.accounted_fraction.staccato", "ratio"),
    ("query.plan_us", "us"),
    ("query.sql_overhead_us", "us"),
    ("query.cache_hit_rate", "ratio"),
    ("query.index_probe_share", "ratio"),
    ("query.postings_per_probe", "count"),
    ("query.ingest_self_ms", "ms"),
    ("server.handler_p50_us.query", "us"),
    ("server.handler_p50_us.execute", "us"),
    ("server.handler_p50_us.ingest", "us"),
    ("server.handler_p99_us.query", "us"),
    ("server.handler_p99_us.execute", "us"),
    ("server.handler_p99_us.ingest", "us"),
    ("server.overhead_p50_ms", "ms"),
    ("server.non_2xx", "count"),
    ("server.ingest_ack_p50_ms", "ms"),
    ("server.ingest_ack_p99_ms", "ms"),
    ("bench.op_p99_ms", "ms"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.error_rate", "ratio"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s >= 1)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, cfg: &Config, tracer: &Tracer) -> Outcome {
    let _ = std::fs::remove_dir_all(&cfg.work);
    std::fs::create_dir_all(&cfg.work).expect("creating the work directory");
    let out = match name {
        "paper_t4" => paper_t4::run(cfg, tracer),
        "ingest_durable" => ingest_durable::run(cfg, tracer),
        "http_mixed" => http_mixed::run(cfg, tracer),
        _ => unreachable!("workload names are checked while parsing"),
    };
    let _ = std::fs::remove_dir_all(&cfg.work);
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: staccato-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    let mut cfg = Config {
        seed: args.seed,
        seconds: args.seconds as f64,
        work,
    };

    let (out, names) = if args.trace {
        // Half untraced, half traced: the traced half gives the layers,
        // the ratio of the two gives the tracing overhead.
        cfg.seconds = (args.seconds as f64 / 2.0).max(1.0);
        let plain = run_workload(args.workload, &cfg, &Tracer::new(false));
        let tracer = Tracer::new(true);
        let mut traced = run_workload(args.workload, &cfg, &tracer);
        let base = plain.metrics.get("op_p50_ms").copied().unwrap_or(0.0);
        let with = traced.metrics.get("op_p50_ms").copied().unwrap_or(0.0);
        traced.set("bench.trace_overhead", summary::ratio(with, base));
        traced.tally.merge(plain.tally);
        let rate = traced.tally.error_rate();
        traced.set("bench.error_rate", rate);
        let dir = root.join("traces");
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| tracer.write_to(&path)) {
            Ok(()) => traced
                .notes
                .push(format!("{} spans -> {}", tracer.len(), path.display())),
            Err(e) => traced.notes.push(format!("writing spans failed: {e}")),
        }
        (traced, &PER_LAYER[..])
    } else {
        (
            run_workload(args.workload, &cfg, &Tracer::new(false)),
            &END_TO_END[..],
        )
    };

    for note in &out.notes {
        println!("{note}");
    }
    let t = &out.tally;
    println!(
        "error_rate = {:.6} ({} of {} operations failed{})",
        t.error_rate(),
        t.failed,
        t.attempted,
        if t.examples.is_empty() {
            String::new()
        } else {
            format!("; e.g. {}", t.examples.join(", "))
        }
    );
    for ((kind, kmap), n) in &t.by_kind {
        println!(
            "  failed check {}{}: {n}",
            kind.name(),
            if *kmap { " (k-MAP)" } else { "" }
        );
    }
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let value = out.metrics.get(*name).copied().unwrap_or_else(|| {
            assert!(
                !END_TO_END.iter().any(|(n, _)| n == name),
                "{name} was not measured"
            );
            0.0
        });
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name} = {value} {unit}");
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!("{{\"env\": {}}}", out.env.to_json());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.correct(),
        t.attempted,
        t.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables above and `BENCHMARK.json` list the same
    /// workloads and metrics, with the same units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = staccato_server::Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("{key} missing"))
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), table(&END_TO_END));
        assert_eq!(list("per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv(
            "--workload http_mixed --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            ("http_mixed", 3, 10, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload paper_t4 --seed x --seconds 10 --trace 0",
            "--workload paper_t4 --seed 3 --seconds 0 --trace 0",
            "--workload paper_t4 --seed 3 --seconds 10 --trace 2",
            "--workload paper_t4 --seconds 10",
            "--workload paper_t4 --seed 3 --seconds 10 --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad} was accepted");
        }
    }
}
