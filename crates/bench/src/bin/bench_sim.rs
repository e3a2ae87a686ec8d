//! Whole-simulator wall-clock benchmark: drives the fig3 UDP blast, the
//! livelock timeline and a faulted TCP bulk transfer end to end and
//! reports events/sec, writing `BENCH_sim.json` at the repository root —
//! the second point of the ROADMAP's wall-clock trajectory (after
//! `BENCH_tcp.json`).
//!
//! The fig3 blast runs with full telemetry on and off in interleaved
//! pairs; the median of the paired overhead ratios is gated against the
//! <10% telemetry budget.

use lrp_core::{Architecture, World};
use lrp_experiments::{fault_sweep, fig3, livelock_timeline};
use lrp_sim::SimTime;
use lrp_stack::tcp::CcAlgo;
use std::time::Instant;

/// Timed runs per (workload, architecture, telemetry setting); each row
/// reports the fastest. On fig3 these are also the telemetry on/off
/// pairs. Odd, so the median pair is a single sample.
const ATTEMPTS: usize = 21;

/// The full-telemetry budget: at most this fraction of fig3 events/sec.
const TELEMETRY_BUDGET: f64 = 0.10;

struct Row {
    experiment: &'static str,
    arch: &'static str,
    /// Full telemetry (traces, spans, sketches, watchdog, timeline) on?
    telemetry: bool,
    events: u64,
    elapsed_ns: u128,
    events_per_sec: f64,
}

impl Row {
    /// The fastest of `runs` (events, elapsed_ns) samples.
    fn best(
        experiment: &'static str,
        arch: Architecture,
        telemetry: bool,
        runs: &[(u64, u128)],
    ) -> Self {
        let &(events, elapsed_ns) = runs
            .iter()
            .min_by_key(|&&(_, ns)| ns)
            .expect("at least one run");
        let row = Row {
            experiment,
            arch: arch_tag(arch),
            telemetry,
            events,
            elapsed_ns,
            events_per_sec: events as f64 / (elapsed_ns as f64 / 1e9),
        };
        println!(
            "{}/{}/telemetry-{}: {events} events in {:.1} ms ({:.0} events/s)",
            row.experiment,
            row.arch,
            if telemetry { "on" } else { "off" },
            elapsed_ns as f64 / 1e6,
            row.events_per_sec
        );
        row
    }
}

/// Builds a world, disables every host's telemetry unless `telemetry`
/// (the experiment builders turn it on), and times `run_until(dur)`.
/// Returns (events, elapsed_ns); building is not timed.
fn time_once(telemetry: bool, dur: SimTime, build: &impl Fn() -> World) -> (u64, u128) {
    let mut world = build();
    if !telemetry {
        for h in &mut world.hosts {
            h.set_telemetry(false);
        }
    }
    let start = Instant::now();
    world.run_until(dur);
    (world.events_processed(), start.elapsed().as_nanos())
}

fn arch_tag(arch: Architecture) -> &'static str {
    match arch {
        Architecture::Bsd => "bsd",
        Architecture::SoftLrp => "soft-lrp",
        Architecture::NiLrp => "ni-lrp",
        Architecture::EarlyDemux => "early-demux",
    }
}

/// Events/sec over a set of (events, elapsed_ns) samples.
fn aggregate_eps(runs: impl Iterator<Item = (u64, u128)>) -> f64 {
    let (events, ns) = runs.fold((0u64, 0u128), |(e, n), (de, dn)| (e + de, n + dn));
    events as f64 / (ns as f64 / 1e9)
}

/// The `q`-quantile of sorted samples, by nearest rank.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn main() {
    let mut rows: Vec<Row> = Vec::new();

    // fig3: the Figure-3 UDP blast at 12 000 pkts/s (Poisson, seed 7),
    // with telemetry on and off in interleaved pairs. Pair i runs every
    // architecture back to back in both settings, alternating which
    // setting goes first, so drift in machine speed hits both sides of
    // a pair alike; the pair's overhead is 1 - on/off events/sec summed
    // over the architectures.
    let fig3_archs = [
        Architecture::Bsd,
        Architecture::SoftLrp,
        Architecture::NiLrp,
    ];
    // runs[arch][telemetry as usize][pair]
    let mut runs = vec![[Vec::new(), Vec::new()]; fig3_archs.len()];
    for pair in 0..ATTEMPTS {
        let order = if pair % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for (a, &arch) in fig3_archs.iter().enumerate() {
            for telemetry in order {
                let build = || fig3::build_seeded(arch, 12_000.0, true, 7).0;
                let sample = time_once(telemetry, SimTime::from_secs(1), &build);
                runs[a][telemetry as usize].push(sample);
            }
        }
    }
    let mut overheads: Vec<f64> = (0..ATTEMPTS)
        .map(|pair| {
            let on = aggregate_eps(runs.iter().map(|r| r[1][pair]));
            let off = aggregate_eps(runs.iter().map(|r| r[0][pair]));
            1.0 - on / off
        })
        .collect();
    overheads.sort_by(f64::total_cmp);
    let (q1, median, q3) = (
        quantile(&overheads, 0.25),
        quantile(&overheads, 0.5),
        quantile(&overheads, 0.75),
    );
    for (a, &arch) in fig3_archs.iter().enumerate() {
        for telemetry in [true, false] {
            rows.push(Row::best(
                "fig3",
                arch,
                telemetry,
                &runs[a][telemetry as usize],
            ));
        }
    }

    // livelock: 20 000 pkts/s overload with the metered compute victim
    // (telemetry + timeline on — the heaviest per-event path).
    for arch in [Architecture::Bsd, Architecture::NiLrp] {
        let build = || livelock_timeline::build(arch, livelock_timeline::SEED).0;
        let samples: Vec<_> = (0..ATTEMPTS)
            .map(|_| time_once(true, SimTime::from_secs(1), &build))
            .collect();
        rows.push(Row::best("livelock", arch, true, &samples));
    }

    // cc: TCP bulk transfer (NewReno) through a 2 % bursty-loss link —
    // retransmit-timer churn stresses the event queue's cancel path.
    for arch in [Architecture::Bsd, Architecture::NiLrp] {
        let build = || {
            let plan = fault_sweep::burst_plan(0xB57, 0.02);
            fault_sweep::build_cc(arch, CcAlgo::NewReno, plan, 1 << 20).0
        };
        let samples: Vec<_> = (0..ATTEMPTS)
            .map(|_| time_once(true, SimTime::from_secs(20), &build))
            .collect();
        rows.push(Row::best("cc", arch, true, &samples));
    }

    // The telemetry overhead budget: full telemetry (traces, spans,
    // sketches, watchdog, timeline, sockstats) must cost <10% events/sec
    // on the fig3 blast. Enforced here so the bench run itself fails CI
    // when instrumentation creep breaks the budget.
    println!(
        "fig3 telemetry overhead over {ATTEMPTS} pairs: median {:.1}% (quartiles {:.1}%..{:.1}%)",
        median * 100.0,
        q1 * 100.0,
        q3 * 100.0
    );
    assert!(
        median < TELEMETRY_BUDGET,
        "full telemetry costs {:.1}% events/sec on fig3 (median of {ATTEMPTS} pairs) — budget is <{:.0}%",
        median * 100.0,
        TELEMETRY_BUDGET * 100.0
    );

    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"experiment\": \"{}\", \"arch\": \"{}\", \"telemetry\": {}, \
                 \"events\": {}, \"elapsed_ns\": {}, \"events_per_sec\": {:.1} }}",
                r.experiment, r.arch, r.telemetry, r.events, r.elapsed_ns, r.events_per_sec
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"sim_event_loop\",\n  \"attempts\": {ATTEMPTS},\n  \
         \"fig3_telemetry_overhead\": {median:.4},\n  \
         \"fig3_telemetry_overhead_q1\": {q1:.4},\n  \
         \"fig3_telemetry_overhead_q3\": {q3:.4},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    // The repo root, two levels up from this crate's manifest.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_sim.json");
    std::fs::write(&path, json).expect("write BENCH_sim.json");
    eprintln!("wrote {}", path.display());
}
