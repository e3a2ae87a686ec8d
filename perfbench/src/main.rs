//! The simulator benchmark binary. `perfbench/run.py` drives it; each
//! invocation is one fresh process, so every timed run starts from the
//! same allocator and frame-arena state.
//!
//! ```text
//! perfbench run --workload <name> --seed <n> --mode plain|sliced|telemetry-off [--spans <file>]
//! perfbench layers --workload <name> --seed <n> --queue-rates <events,injected,host_tx,ticks,cpu_busy_ns>
//! ```
//!
//! `run` builds the workload's world on each of the four architectures in
//! turn, runs the warm-up, then the measured window, checks the outputs
//! and prints one JSON line. `layers` times calls into each layer's
//! public functions on inputs from the workload's generators; the event
//! queue's inputs follow one world's event rates per simulated second,
//! measured by a `run`.

mod alloc;
mod layers;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use workload::{Mode, Workload, ARCHS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    mode: Mode,
    spans: Option<String>,
    queue_rates: Option<layers::QueueRates>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command: run or layers")?;
    let (mut workload, mut seed, mut mode, mut spans) = (None, None, Mode::Plain, None);
    let mut queue_rates = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--mode" => {
                mode = match value.as_str() {
                    "plain" => Mode::Plain,
                    "sliced" => Mode::Sliced,
                    "telemetry-off" => Mode::TelemetryOff,
                    _ => return Err(format!("unknown mode {value}")),
                }
            }
            "--spans" => spans = Some(value),
            "--queue-rates" => {
                queue_rates = Some(
                    layers::QueueRates::parse(&value).ok_or(format!("bad queue rates {value}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        mode,
        spans,
        queue_rates,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let mut archs = Vec::new();
    let mut latencies = Vec::new();
    let mut slices = Vec::new();
    let mut errors = Vec::new();
    // Each architecture's heap peak is over the heap in use when its world
    // is built, so what this loop keeps from earlier ones is not in it.
    let mut heap_peak = 0;
    let mut span_lines = String::new();
    for (arch, tag) in ARCHS {
        let r = workload::run_arch(w, arch, args.seed, args.mode);
        let c = &r.counters;
        archs.push(format!(
            "{{\"arch\":\"{tag}\",\"setup_s\":{},\"host_s\":{},\"heap_peak\":{},\"allocs\":{},\"alloc_bytes\":{},\
             \"events\":{},\"rx_frames\":{},\"classified\":{},\"interrupts\":{},\
             \"early_discards\":{},\"tx_frames\":{},\"late_drops\":{},\"segs_in\":{},\
             \"segs_out\":{},\"retransmits\":{},\"cookies_sent\":{},\"cookies_validated\":{},\
             \"injected\":{},\"ticks\":{},\"cpu_busy_ns\":{},\"ctx_switches\":{},\"interrupt_ns\":{},\"cpu_ns\":{},\"arena_checkouts\":{},\
             \"arena_reuses\":{},\"ops\":{},\"offered\":{},\"modelled_failures\":{},\
             \"window_bytes\":{},\"step_host_ns\":[{}],\"digest\":{}}}",
            r.setup_ns as f64 / 1e9,
            r.host_ns as f64 / 1e9,
            r.heap_peak,
            r.alloc.allocs,
            r.alloc.bytes,
            c.events,
            c.rx_frames,
            c.classified,
            c.interrupts,
            c.early_discards,
            c.tx_frames,
            c.late_drops,
            c.segs_in,
            c.segs_out,
            c.retransmits,
            c.cookies_sent,
            c.cookies_validated,
            c.injected,
            c.ticks,
            c.cpu_busy_ns,
            c.ctx_switches,
            c.interrupt_ns,
            c.cpu_ns,
            c.arena_checkouts,
            c.arena_reuses,
            r.latencies.len(),
            r.offered,
            r.modelled_failures,
            r.window_bytes,
            r.spans
                .iter()
                .map(|s| s.host_ns.to_string())
                .collect::<Vec<_>>()
                .join(","),
            json_str(&r.digest),
        ));
        for s in &r.spans {
            let _ = writeln!(
                span_lines,
                "{{\"arch\":\"{tag}\",\"slice\":{},\"host_ns\":{},\"events\":{},\"allocs\":{}}}",
                s.slice, s.host_ns, s.events, s.allocs
            );
            slices.push(s.host_ns);
        }
        heap_peak += r.heap_peak;
        errors.extend(r.errors.into_iter().map(|e| format!("{tag}: {e}")));
        latencies.extend(r.latencies);
    }
    if latencies.is_empty() {
        errors.push("no operation completed in the window on any architecture".into());
    }
    if let Some(path) = &args.spans {
        std::fs::write(path, span_lines).map_err(|e| format!("writing {path}: {e}"))?;
    }
    latencies.sort_unstable();
    slices.sort_unstable();
    let errors: Vec<String> = errors.iter().map(|e| json_str(e)).collect();
    Ok(format!(
        "{{\"workload\":{},\"seed\":{},\"sim_s\":{},\"peak_heap_bytes\":{},\
         \"latency\":{{\"samples\":{},\"p50_ns\":{},\"p99_ns\":{}}},\
         \"slices\":{{\"count\":{},\"p50_ns\":{},\"p99_ns\":{}}},\
         \"archs\":[{}],\"errors\":[{}]}}",
        json_str(&format!("{w:?}")),
        args.seed,
        w.window().as_secs_f64(),
        heap_peak,
        latencies.len(),
        workload::percentile(&latencies, 0.5),
        workload::percentile(&latencies, 0.99),
        slices.len(),
        workload::percentile(&slices, 0.5),
        workload::percentile(&slices, 0.99),
        archs.join(","),
        errors.join(","),
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match args.command.as_str() {
        "run" => run(&args),

        "layers" => args
            .queue_rates
            .ok_or_else(|| "layers needs --queue-rates".to_string())
            .map(|rates| {
                let body = layers::run(args.workload, args.seed, rates)
                    .iter()
                    .map(|(k, v)| format!("{}:{v}", json_str(k)))
                    .collect::<Vec<_>>()
                    .join(",");
                format!("{{{body}}}")
            }),
        other => Err(format!("unknown command {other}")),
    };
    match out {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
