//! `lpbench` — the lifepred benchmark.
//!
//! One run measures one workload for a fixed wall-clock budget and
//! prints, as its last stdout line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end set ([`END_TO_END`]); with
//! `--trace 1` they are the per-layer set ([`PER_LAYER`]), measured by
//! a separate run that also records spans around every call into a
//! crate and writes them to `.bench_run/spans-<workload>-seed<n>.json`.
//!
//! ```text
//! bash perfbench/run.sh --workload <server|paper|sweep|native> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke] [--ref-dir <dir>]
//! ```
//!
//! Every load is a closed loop with one caller: the next iteration
//! starts when the previous one has finished, and a new one starts only
//! while the projected end stays inside `--seconds`. Timings are the
//! median over iterations; each metric's inter-quartile spread is
//! printed next to it (unavailable when a run holds one iteration).
//!
//! An operation that fails — an error from a command, an output that
//! differs from its reference — is counted in `failed`. An error also
//! ends the run early, which still prints its result line, with
//! `correct` false. The benchmark measures from outside: it times
//! calls into each crate's public functions (the CLI through
//! `lifepred_cli::run`, the `all_tables` binary as a child process,
//! `galloc` in a child process of this binary).
//!
//! The binary installs `LifepredGlobal` as its global allocator and is
//! built with `lifepred-obs/timing` (through `lifepred-cli`), the same
//! configuration as the shipped `lifepred` binary.

mod measure;
mod native;
mod paper;
mod server;
mod spans;
mod sweep;

use measure::{Metrics, Samples};
use spans::Spans;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Same global allocator as the shipped `lifepred` binary: a system
/// passthrough until the `native` workload's child activates it.
#[global_allocator]
static GLOBAL: lifepred_galloc::LifepredGlobal = lifepred_galloc::LifepredGlobal::new();

/// End-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_bytes", "bytes"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload. A
/// layer that does no such work on a workload reports 0. The comments
/// name the end-to-end metric each group should move, and on which
/// workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Stages of each workload's timed path → pipeline_s, cpu_s.
    ("train_s", "s"),
    ("simulate_bsd_events_per_s", "1/s"),
    ("simulate_firstfit_events_per_s", "1/s"),
    ("simulate_arena_events_per_s", "1/s"),
    ("simulate_online_events_per_s", "1/s"),
    ("tables_s", "s"),
    ("sweep_cold_s", "s"),
    ("native_s", "s"),
    ("handoff_ops_per_s", "1/s"),
    ("trace_overhead_share", "ratio"),
    // workloads → setup_s (server, sweep); pipeline_s (native)
    ("workloads.gen_events_per_s", "1/s"),
    ("workloads.record_s", "s"),
    // trace → train_s, pipeline_s (server)
    ("trace.load_s", "s"),
    // tracefile → simulate_*_events_per_s, pipeline_s (server); sweep_cold_s (sweep)
    ("tracefile.open_verify_s", "s"),
    ("tracefile.verify_bytes_per_s", "bytes/s"),
    ("tracefile.decode_events_per_s", "1/s"),
    ("tracefile.records_walk_s", "s"),
    ("tracefile.chunked_decode_events_per_s", "1/s"),
    ("tracefile.bytes_per_event", "bytes"),
    // core → train_s, simulate_{arena,online} (server); tables_s (paper)
    ("core.site_pass_ns_per_record", "ns"),
    ("core.profile_s", "s"),
    ("core.train_s", "s"),
    ("core.sites", "count"),
    ("core.short_sites", "count"),
    // heap: self time and index work → simulate_*_events_per_s (server); tables_s (paper)
    ("heap.bsd.place_ns_per_event", "ns"),
    ("heap.firstfit.place_ns_per_event", "ns"),
    ("heap.arena.place_ns_per_event", "ns"),
    ("heap.online.place_ns_per_event", "ns"),
    ("heap.firstfit.index_scans_per_alloc", "ratio"),
    ("heap.firstfit.bin_hit_share", "ratio"),
    // heap: simulated statistics (a speed-only change must not move them)
    ("heap.bsd.max_heap_bytes", "bytes"),
    ("heap.firstfit.max_heap_bytes", "bytes"),
    ("heap.arena.max_heap_bytes", "bytes"),
    ("heap.online.max_heap_bytes", "bytes"),
    ("heap.arena.arena_alloc_share", "ratio"),
    ("heap.frees_invalid", "count"),
    // adaptive: simulated statistics of the online learner (server)
    ("adaptive.epochs", "count"),
    ("adaptive.mispredictions", "count"),
    ("adaptive.coverage_alloc_share", "ratio"),
    // obs: cost of `simulate --metrics-out` over plain, per backend (server)
    ("obs.bsd.metrics_overhead_share", "ratio"),
    ("obs.firstfit.metrics_overhead_share", "ratio"),
    ("obs.arena.metrics_overhead_share", "ratio"),
    ("obs.online.metrics_overhead_share", "ratio"),
    // galloc → native_s, handoff_ops_per_s, pipeline_s (native)
    ("galloc.magazine_hit_rate", "ratio"),
    ("galloc.short_allocs", "count"),
    ("galloc.seg_resets", "count"),
    ("galloc.epoch_ticks", "count"),
    ("galloc.remote_frees", "count"),
    ("galloc.handoff_alloc_ns_p50", "ns"),
    ("galloc.handoff_alloc_ns_p99", "ns"),
    ("galloc.handoff_free_ns_p50", "ns"),
    ("galloc.handoff_free_ns_p99", "ns"),
    ("galloc.native_speedup_vs_system", "ratio"),
    ("galloc.system_native_s", "s"),
    // sweep → sweep_cold_s, pipeline_s (sweep)
    ("sweep.unique_cells", "count"),
    ("sweep.cache_hits", "count"),
    ("sweep.errors", "count"),
    ("sweep.warm_s", "s"),
    ("sweep.warm_hit_rate", "ratio"),
    // bench → tables_s, setup_s (paper)
    ("tables.suite_build_s", "s"),
];

/// Workload names accepted by `--workload`.
pub const WORKLOADS: &[&str] = &["server", "paper", "sweep", "native"];

/// Seed whose `server` outputs are pinned in `ref/`.
pub const DEFAULT_SEED: u64 = 1;

/// Traced / untraced iteration pairs a traced run makes at least.
pub const TRACE_PAIRS: usize = 2;

/// Shared state of one benchmark run.
pub struct Ctx {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: the measuring budget of the timed loop.
    pub seconds: f64,
    /// `--trace 1`: record spans and take the per-layer measurements.
    pub trace: bool,
    /// `--smoke`: small inputs for the self-test.
    pub smoke: bool,
    /// Scratch directory of this run, removed when the run ends.
    pub work: PathBuf,
    /// `--ref-dir`: where the reference outputs are read from.
    pub ref_dir: PathBuf,
    /// Span recorder (on only with `--trace 1`).
    pub spans: Spans,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Why operations failed (the first few reasons).
    pub reasons: Vec<String>,
    /// Everything measured, by metric name.
    pub metrics: Metrics,
}

impl Ctx {
    /// Runs one `lifepred` command in-process through the CLI's entry
    /// point, timing it and recording a span named `span`. One command
    /// is one operation; an error fails it.
    pub fn cli(&mut self, span: &'static str, args: &[&str]) -> Result<(String, f64), String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        let mut out = Vec::new();
        let id = self.spans.enter(span);
        let started = Instant::now();
        let result = lifepred_cli::run(&args, &mut out);
        let secs = started.elapsed().as_secs_f64();
        self.spans.exit(id);
        self.attempted += 1;
        match result {
            Ok(()) => Ok((String::from_utf8_lossy(&out).into_owned(), secs)),
            Err(e) => {
                let msg = format!("lifepred {}: {e}", args.join(" "));
                self.fail(1, msg.clone());
                Err(msg)
            }
        }
    }

    /// Times `f` under a span named `span` (an in-process call into a
    /// crate's public function).
    pub fn time<R>(&mut self, span: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.spans.enter(span);
        let started = Instant::now();
        let r = std::hint::black_box(f());
        let secs = started.elapsed().as_secs_f64();
        self.spans.exit(id);
        (r, secs)
    }

    /// Counts `n` operations, failing them all with `reason` when `ok`
    /// is false.
    pub fn check(&mut self, n: u64, ok: bool, reason: impl FnOnce() -> String) {
        self.attempted += n;
        if !ok {
            self.fail(n, reason());
        }
    }

    /// Fails `n` operations already counted as attempted.
    pub fn fail(&mut self, n: u64, reason: String) {
        self.failed += n;
        if self.reasons.len() < 20 {
            self.reasons.push(reason);
        }
    }

    /// A reference output, `<name>` in `--ref-dir`.
    pub fn reference(&self, name: &str) -> Result<String, String> {
        let path = self.ref_dir.join(name);
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// A path inside this run's scratch directory, as a string for the
    /// CLI's arguments.
    pub fn path(&self, name: &str) -> String {
        self.work.join(name).to_string_lossy().into_owned()
    }

    /// Runs `iteration` as a closed loop until the projected end of the
    /// next iteration would pass `--seconds` (at least `min_iters`
    /// times). Returns the untraced iteration times.
    ///
    /// With tracing the iterations come in pairs, one traced and one
    /// not, ordered untraced-traced, traced-untraced, ... so that a
    /// drift in the host's speed falls on both halves alike. The traced
    /// ones only feed `trace_overhead_share`, the median over pairs of
    /// traced / untraced − 1. A traced run makes at least
    /// [`TRACE_PAIRS`] pairs (one at smoke size) and ends on a whole
    /// pair.
    pub fn closed_loop(
        &mut self,
        min_iters: usize,
        mut iteration: impl FnMut(&mut Ctx) -> Result<f64, String>,
    ) -> Result<Samples, String> {
        let min_iters = if self.trace {
            let pairs = if self.smoke { 1 } else { TRACE_PAIRS };
            min_iters.max(2 * pairs)
        } else {
            min_iters.max(1)
        };
        let started = Instant::now();
        let (mut plain, mut ratios) = (Samples::default(), Samples::default());
        let mut all = Samples::default();
        let mut pair = [0.0; 2];
        for i in 0.. {
            let elapsed = started.elapsed().as_secs_f64();
            // Tracing starts a whole pair or nothing.
            let (whole, next) = if self.trace {
                (i % 2 == 0, 2.0 * all.median())
            } else {
                (true, all.median())
            };
            if i >= min_iters && whole && elapsed + next > self.seconds {
                break;
            }
            let on = self.trace && matches!(i % 4, 1 | 2);
            self.spans.set_recording(on, i as u32);
            let secs = iteration(self)?;
            self.spans.set_recording(false, i as u32);
            all.push(secs);
            if on {
                pair[1] = secs;
            } else {
                pair[0] = secs;
                plain.push(secs);
            }
            if self.trace && i % 2 == 1 {
                ratios.push(pair[1] / pair[0]);
            }
        }
        // The per-layer pass after the loop is traced again.
        self.spans.set_recording(true, all.len() as u32);
        if self.trace {
            let overhead = ratios.median() - 1.0;
            println!(
                "trace overhead: median of {} pair(s), per-pair traced/untraced {:?}",
                ratios.len(),
                ratios.values()
            );
            self.metrics
                .value("trace_overhead_share", "ratio", overhead);
        }
        Ok(plain)
    }
}

/// The leading number after `label` on the first line of `text` that
/// starts with it (`"max heap bytes: 123"` → 123; `"coverage: 72.4%
/// allocs"` → 72.4).
pub fn field(text: &str, label: &str) -> Option<f64> {
    let rest = text
        .lines()
        .find_map(|l| l.trim_start().strip_prefix(label))?;
    let num: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    num.parse().ok()
}

/// FNV-1a 64 digest, printed so two runs can show they had the same
/// inputs or outputs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    ref_dir: PathBuf,
    child: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        smoke: false,
        ref_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/ref")),
        child: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--ref-dir" => a.ref_dir = PathBuf::from(value()?),
            "--child" => a.child = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.child.is_none() && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} (got {:?})",
            WORKLOADS.join(", "),
            a.workload
        ));
    }
    Ok(a)
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lpbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(child) = &args.child {
        std::process::exit(native::child_main(child, args.seed, args.smoke, args.trace));
    }
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("lpbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    // The build must be the shipped configuration, or the numbers
    // describe some other program.
    if !lifepred_obs::TIMING_ENABLED {
        return Err("built without lifepred-obs/timing; the shipped CLI has it on".into());
    }
    let host = lifepred_bench::BenchHost::probe();
    let load = measure::load_average();
    println!(
        "host: {{{}, \"loadavg_at_start\": \"{load}\"}}",
        host.json_fields()
    );
    println!(
        "build: features lifepred-obs/timing; global allocator LifepredGlobal \
         (passthrough unless activated)"
    );
    println!(
        "run: workload {} seed {} seconds {} trace {}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " smoke" } else { "" }
    );

    let root = Path::new(".bench_run");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let _cleanup = WorkDir(work.clone());
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        work,
        ref_dir: args.ref_dir.clone(),
        spans: Spans::new(args.trace),
        attempted: 0,
        failed: 0,
        reasons: Vec::new(),
        metrics: Metrics::default(),
    };
    let outcome = match args.workload.as_str() {
        "server" => server::run(&mut ctx),
        "paper" => paper::run(&mut ctx),
        "sweep" => sweep::run(&mut ctx),
        "native" => native::run(&mut ctx),
        _ => unreachable!("workload validated by parse_args"),
    };
    // An error ends the run; it fails the operation it came from, and
    // the metrics measured so far are printed, the rest as 0.
    let ended_early = outcome.is_err();
    if let Err(e) = outcome {
        if ctx.failed == 0 {
            ctx.attempted += 1;
            ctx.fail(1, e.clone());
        }
        eprintln!("lpbench: run ended early: {e}");
    }

    if args.trace {
        let path = root.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&path, ctx.spans.to_json(&host.json_fields(), &load))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {} written to {}", ctx.spans.len(), path.display());
    }
    for f in &ctx.reasons {
        println!("failed: {f}");
    }
    ctx.metrics.print_report();
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = ctx.metrics.json(wanted, args.trace || ended_early)?;
    let failed = ctx.failed;
    let mut stdout = std::io::stdout().lock();
    writeln!(
        stdout,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0,
        ctx.attempted.max(1),
    )
    .and_then(|()| stdout.flush())
    .map_err(|e| format!("stdout: {e}"))
}
