//! `perfbench` — the end-to-end and per-layer benchmark of the COSMA
//! co-simulation and co-synthesis flows.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dag_dense --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One run warms up with one episode, then measures fresh episodes of
//! the workload for `--seconds`, runs the workload's oracle, and checks
//! every episode: its own output check, equality with the oracle, and
//! counters that repeat exactly (the determinism gate). The last line
//! of standard output is the result: `{"correct", "attempted",
//! "failed", "metrics"}`. With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1` every other episode is traced and
//! the metrics are the per-layer ones, and the spans are written to
//! `perfbench/out/`. The line before the result is a report with the
//! provenance (`cpus`, `git_rev`, seed) and every timing's median, tail
//! percentile and sample count. `README.md` defines the metrics and maps
//! layers to metrics and workloads.

mod measure;
mod workloads;

use measure::{median, num, summarize, text, Summary, Tracer};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Bench, Counts, Episode, Workload};

/// Timed episodes measured even when `--seconds` runs out first.
const MIN_EPISODES: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <pipeline_wave|dag_dense|split_ring|motor_cosynth> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let bench = Bench {
        workload,
        seed: args.seed,
    };
    let mut tr = Tracer::new();

    // Warm-up: fills caches and the allocator; checked, not timed.
    let warmup = bench.episode(&mut tr);
    let mut timed: Vec<(Episode, bool)> = vec![];
    let mut peak_rss = None;
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    while start.elapsed() < budget || timed.len() < MIN_EPISODES {
        let id = u32::try_from(timed.len()).expect("episode count fits u32");
        let traced = args.trace && id % 2 == 1;
        tr.start_episode(id, traced);
        timed.push((bench.episode(&mut tr), traced));
        // A fixed amount of work, so that the figure does not drift with
        // how many episodes the host fits into the run.
        if timed.len() == MIN_EPISODES {
            peak_rss = measure::peak_rss_mib();
        }
    }
    tr.start_episode(u32::MAX, false);
    let oracle = bench.oracle(&mut tr);

    // Checks: the episode's own, the oracle's, the determinism gate.
    let reference: Option<&Counts> = std::iter::once(&warmup)
        .chain(timed.iter().map(|(e, _)| e))
        .find(|e| e.failure.is_none())
        .map(|e| &e.counts);
    let mut failures: Vec<String> = vec![];
    for (i, ep) in std::iter::once(&warmup)
        .chain(timed.iter().map(|(e, _)| e))
        .enumerate()
    {
        let verdict = ep
            .failure
            .clone()
            .or_else(|| oracle.as_ref().err().map(|e| format!("oracle failed: {e}")))
            .or_else(|| match (&oracle, &ep.fingerprint) {
                (Ok(Some(o)), Some(fp)) => fp
                    .diff(&o.fingerprint)
                    .map(|what| format!("{what} differ from the oracle")),
                _ => None,
            })
            .or_else(|| {
                (Some(&ep.counts) != reference)
                    .then(|| format!("counts differ: {}", count_diff(&ep.counts, reference)))
            });
        if let Some(v) = verdict {
            failures.push(format!("episode {i}: {v}"));
        }
    }
    // The sync percentiles come from one sample per quantum position;
    // p90 needs at least ten of them beyond it.
    let untraced: Vec<&Episode> = timed.iter().filter(|(_, t)| !t).map(|(e, _)| e).collect();
    let fastest_quanta = fastest_by_position(&untraced, |e| &e.quanta_us);
    let beyond_p90 = measure::samples_beyond(fastest_quanta.len(), 90);
    if beyond_p90 < 10 {
        failures.push(format!(
            "only {} quantum positions, so {beyond_p90} samples beyond sync_p90_us (need 10)",
            fastest_quanta.len()
        ));
    }
    for f in failures.iter().take(5) {
        eprintln!("perfbench: FAILED {f}");
    }

    let traced: Vec<(u32, &Episode)> = timed
        .iter()
        .enumerate()
        .filter(|(_, (_, t))| *t)
        .map(|(i, (e, _))| (i as u32, e))
        .collect();
    let mut timings: BTreeMap<&str, Summary> = BTreeMap::new();
    let quanta: Vec<f64> = untraced
        .iter()
        .flat_map(|e| e.quanta_us.iter().copied())
        .collect();
    let fastest_chunks = fastest_by_position(&untraced, |e| &e.board_chunks_us);
    timings.insert("sync_us", summarize(&quanta));
    timings.insert("sync_fastest_us", summarize(&fastest_quanta));
    timings.insert("setup_s", summarize(&secs(&untraced, |e| e.setup)));
    timings.insert("run_s", summarize(&secs(&untraced, |e| e.run)));
    timings.insert("board_run_s", summarize(&secs(&untraced, |e| e.board_run)));

    let metrics = if args.trace {
        per_layer(&bench, reference, &untraced, &traced, &tr, &oracle)
    } else {
        let sim_us = untraced.first().map_or(0.0, |e| e.sim_us + e.board_sim_us);
        let host_ms =
            (fastest_quanta.iter().sum::<f64>() + fastest_chunks.iter().sum::<f64>()) / 1e3;
        vec![
            ("sim_us_per_wall_ms", sim_us / host_ms, "us/ms"),
            (
                "sync_p50_us",
                measure::percentile_of(&fastest_quanta, 50),
                "us",
            ),
            (
                "sync_p90_us",
                measure::percentile_of(&fastest_quanta, 90),
                "us",
            ),
            ("setup_s", timings["setup_s"].min, "s"),
            ("peak_rss_mib", peak_rss.unwrap_or(f64::NAN), "MiB"),
        ]
    };

    if args.trace {
        write_spans(&args, &tr);
    }
    let attempted = 1 + timed.len();
    let report = format!(
        "{{\"report\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"cpus\":{},\"git_rev\":{},\
         \"episodes\":{},\"traced_episodes\":{},\"fail_rate\":{},\
         \"sync_samples\":{{\"n\":{},\"beyond_p90\":{beyond_p90}}},\"timings\":{{{}}},\"counts\":{{{}}}}}}}",
        text(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        measure::cpus(),
        text(&measure::git_rev()),
        timed.len(),
        traced.len(),
        num(failures.len() as f64 / attempted as f64),
        fastest_quanta.len(),
        timings
            .iter()
            .map(|(k, s)| format!("{}:{}", text(k), s.json()))
            .collect::<Vec<_>>()
            .join(","),
        reference
            .map(|c| {
                c.iter()
                    .map(|(k, v)| format!("{}:{v}", text(k)))
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .unwrap_or_default(),
    );
    println!("{report}");
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{},\"metrics\":{{{}}}}}",
        failures.is_empty(),
        failures.len(),
        metrics
            .iter()
            .map(|(k, v, unit)| format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                text(k),
                num(*v),
                text(unit)
            ))
            .collect::<Vec<_>>()
            .join(",")
    );
    ExitCode::SUCCESS
}

/// The host time of each run call, taken as the fastest across episodes
/// of the call at that position. Every episode repeats the same
/// deterministic calls, so the spread at one position is host
/// interference, which only adds time; the minimum is the estimate it
/// moves least (Chen and Revels, "Robust benchmarking in noisy
/// environments", 2016).
fn fastest_by_position(eps: &[&Episode], calls: impl Fn(&Episode) -> &[f64]) -> Vec<f64> {
    let positions = eps.iter().map(|e| calls(e).len()).max().unwrap_or(0);
    (0..positions)
        .map(|k| {
            eps.iter()
                .filter_map(|e| calls(e).get(k).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

fn secs(eps: &[&Episode], f: impl Fn(&Episode) -> Duration) -> Vec<f64> {
    eps.iter().map(|e| f(e).as_secs_f64()).collect()
}

fn count_diff(got: &Counts, want: Option<&Counts>) -> String {
    let Some(want) = want else {
        return "no reference episode passed".into();
    };
    got.iter()
        .chain(want.iter())
        .find(|(k, _)| got.get(*k) != want.get(*k))
        .map_or("key sets differ".into(), |(k, _)| {
            format!("{k}: {:?} vs {:?}", got.get(k), want.get(k))
        })
}

/// The per-layer metrics of a traced run. Counts come from the
/// reference episode (every passing episode repeats them exactly);
/// host-time rates from the untraced episodes; call timings from the
/// spans of the traced ones.
fn per_layer(
    bench: &Bench,
    counts: Option<&Counts>,
    untraced: &[&Episode],
    traced: &[(u32, &Episode)],
    tr: &Tracer,
    oracle: &Result<Option<workloads::Oracle>, String>,
) -> Vec<(&'static str, f64, &'static str)> {
    let empty = Counts::new();
    let counts = counts.unwrap_or(&empty);
    let c = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let run_ns = median(&secs(untraced, |e| e.run)) * 1e9;
    let board_run_ns = median(&secs(untraced, |e| e.board_run)) * 1e9;
    let board_sim_us = untraced.first().map_or(0.0, |e| e.board_sim_us);
    let span_ms = |names: &[&str]| -> f64 {
        let per_episode: Vec<f64> = traced
            .iter()
            .map(|(id, _)| {
                let totals = tr.totals(*id);
                names
                    .iter()
                    .filter_map(|n| totals.get(n))
                    .map(|d| d.as_secs_f64() * 1e3)
                    .sum()
            })
            .collect();
        median(&per_episode)
    };
    let wall = |e: &Episode| (e.setup + e.run + e.board_run).as_secs_f64();
    let traced_wall: Vec<f64> = traced.iter().map(|(_, e)| wall(e)).collect();
    let untraced_wall: Vec<f64> = untraced.iter().map(|e| wall(e)).collect();
    let split_over_collapsed = match (bench.workload, oracle) {
        (Workload::SplitRing, Ok(Some(o))) => ratio(run_ns, o.run.as_secs_f64() * 1e9),
        _ => 0.0,
    };
    let snapshot_modules = traced
        .iter()
        .find_map(|(_, e)| e.snapshot_modules)
        .unwrap_or(0) as f64;
    let steps = c("cosim.sched.modules_stepped") + c("cosim.sched.units_stepped");
    let visits = c("cosim.sched.units_stepped") + c("cosim.sched.units_skipped");
    let mut m: Vec<(&'static str, f64, &'static str)> = vec![];
    for k in [
        "sim.events",
        "sim.process_runs",
        "sim.deltas",
        "sim.event_wakeups",
        "sim.timer_wakeups",
        "sim.bulk_entries",
        "sim.wheel_cascades",
    ] {
        m.push((k, c(k), "count"));
    }
    m.push((
        "sim.events_per_s",
        ratio(c("sim.events"), run_ns / 1e9),
        "1/s",
    ));
    for k in [
        "cosim.sched.modules_stepped",
        "cosim.sched.units_stepped",
        "cosim.sched.units_skipped",
        "cosim.sched.watch_probes",
        "cosim.sched.wire_wakeups",
        "cosim.sched.members_parked",
        "cosim.sched.members_resumed",
    ] {
        m.push((k, c(k), "count"));
    }
    m.extend([
        (
            "cosim.sched.probes_per_step",
            ratio(c("cosim.sched.watch_probes"), steps),
            "1/step",
        ),
        (
            "cosim.sched.skip_share",
            ratio(c("cosim.sched.units_skipped"), visits),
            "ratio",
        ),
        ("core.exec.activations", c("core.exec.activations"), "count"),
        (
            "cosim.ns_per_activation",
            ratio(run_ns, c("core.exec.activations")),
            "ns",
        ),
        ("comm.batches", c("comm.batches"), "count"),
        (
            "comm.values_per_batch",
            ratio(c("comm.batched_values"), c("comm.batches")),
            "1/batch",
        ),
        ("comm.payload_beats", c("comm.payload_beats"), "count"),
        ("comm.controller_steps", c("comm.controller_steps"), "count"),
        ("comm.controller_skips", c("comm.controller_skips"), "count"),
        ("comm.service_calls", c("comm.service_calls"), "count"),
        (
            "comm.calls_per_completion",
            ratio(c("comm.service_calls"), c("comm.service_completions")),
            "calls/completion",
        ),
        (
            "comm.ns_per_unit_step",
            ratio(run_ns, c("cosim.sched.units_stepped")),
            "ns",
        ),
        ("cosim.trace.entries", c("cosim.trace.entries"), "count"),
        ("cosim.trace.spilled", c("cosim.trace.spilled"), "count"),
        (
            "cosim.trace.spill_bytes",
            c("cosim.trace.spill_bytes"),
            "bytes",
        ),
        ("cosim.trace.extract_ms", span_ms(&["trace_log"]), "ms"),
        (
            "cosim.snapshot.capture_us",
            span_ms(&["snapshot"]) * 1e3,
            "us",
        ),
        (
            "cosim.snapshot.restore_us",
            span_ms(&["restore"]) * 1e3,
            "us",
        ),
        ("cosim.snapshot.modules", snapshot_modules, "count"),
        (
            "cosim.partition.quanta_committed",
            c("cosim.partition.quanta_committed"),
            "count",
        ),
        (
            "cosim.partition.rollbacks",
            c("cosim.partition.rollbacks"),
            "count",
        ),
        (
            "cosim.partition.rescan_rounds",
            c("cosim.partition.rescan_rounds"),
            "count",
        ),
        (
            "cosim.partition.rollback_rate",
            ratio(
                c("cosim.partition.rollbacks"),
                c("cosim.partition.quanta_committed"),
            ),
            "1/quantum",
        ),
        (
            "cosim.partition.split_over_collapsed",
            split_over_collapsed,
            "ratio",
        ),
        (
            "synth.build_ms",
            span_ms(&["flatten_module", "compile_sw", "synthesize_hw"]),
            "ms",
        ),
        ("synth.clbs", c("synth.clbs"), "count"),
        ("board.run_ms", span_ms(&["board.run_for_ns"]), "ms"),
        ("board.cpu_cycles", c("board.cpu_cycles"), "count"),
        ("board.fabric_ticks", c("board.fabric_ticks"), "count"),
        ("board.bus_reads", c("board.bus_reads"), "count"),
        ("board.bus_writes", c("board.bus_writes"), "count"),
        (
            "board.ns_per_cpu_cycle",
            ratio(board_run_ns, c("board.cpu_cycles")),
            "ns",
        ),
        (
            "board.sim_us_per_wall_ms",
            ratio(board_sim_us, board_run_ns / 1e6),
            "us/ms",
        ),
        (
            "bench.span_overhead",
            ratio(median(&traced_wall), median(&untraced_wall)) - 1.0,
            "ratio",
        ),
    ]);
    m
}

/// Writes the traced run's spans to `perfbench/out/`.
fn write_spans(args: &Args, tr: &Tracer) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-{}.json", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.write_json()));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
