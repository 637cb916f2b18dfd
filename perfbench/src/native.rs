//! `native`: `galloc` doing the work, activated in a child process of
//! this binary. The child runs the six programs on their train and
//! test inputs, as `lifepred native` does, then a two-thread hand-off
//! in which one thread frees what the other allocated. The hand-off's
//! sizes are drawn, seeded, from the allocation records of the
//! `server` program's test trace the child has just recorded, so the
//! hand-off sees that program's size-class mix. `heap` and `tracefile`
//! do nothing here, which makes this workload the control for
//! simulator changes.
//!
//! Set-up is `galloc::activate()`, timed in each child. With tracing,
//! children that leave the allocator unactivated (system passthrough)
//! give the base of `galloc.native_speedup_vs_system`.

use crate::measure::{cpu_now, usage, Samples};
use crate::Ctx;
use lifepred_galloc::classes::{class_for_size, CLASS_SIZES, NUM_CLASSES};
use std::alloc::{alloc, dealloc, Layout};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Allocations handed from one thread to the other per batch.
const BATCH: usize = 256;

/// Children run with the allocator unactivated (traced runs only).
const SYSTEM_CHILDREN: usize = 5;

/// Hand-off batches per child (a tenth in smoke mode).
const BATCHES: usize = 4000;

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let reference = ctx.reference("native.txt")?;
    let mut s: BTreeMap<&'static str, Samples> = BTreeMap::new();
    let mut mix = None;
    let plain = ctx.closed_loop(3, |ctx| {
        let traced = ctx.spans.is_recording();
        let cpu0 = cpu_now();
        let report = spawn(ctx, &exe, "galloc", traced)?;
        mix.get_or_insert_with(|| report.get("handoff_mix").cloned().unwrap_or_default());
        let cpu = cpu_now() - cpu0;
        let num = |k: &str| {
            report
                .get(k)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        let (native_s, handoff_s) = (num("native_s"), num("handoff_s"));
        for (key, v) in [
            ("setup", num("activate_s")),
            ("native", native_s),
            ("handoff_rate", num("handoff_allocs") / handoff_s),
            ("cpu", cpu),
            ("rss", num("maxrss_bytes")),
            ("hit_rate", num("hit_rate")),
            ("short_allocs", num("short_allocs")),
            ("seg_resets", num("seg_resets")),
            ("epoch_ticks", num("epoch_ticks")),
            ("remote_frees", num("remote_frees")),
            ("alloc_p50", num("alloc_ns_p50")),
            ("alloc_p99", num("alloc_ns_p99")),
            ("free_p50", num("free_ns_p50")),
            ("free_p99", num("free_ns_p99")),
        ] {
            s.entry(key).or_default().push(v);
        }
        // One op per allocation; each wild free, underflow, null and
        // overwritten canary fails one.
        ctx.attempted += num("allocs") as u64;
        let bad = num("wild_frees") + num("short_free_underflows") + num("handoff_failures");
        if bad > 0.0 {
            ctx.fail(
                bad as u64,
                format!("galloc: {bad} bad allocations or frees"),
            );
        }
        let programs = report.get("programs").cloned().unwrap_or_default();
        ctx.check(1, programs.trim() == reference.trim(), || {
            format!("native programs traced {programs:?}, not ref/native.txt")
        });
        if num("small_allocs") == 0.0 {
            ctx.fail(1, "no allocation reached galloc's class path".into());
        }
        Ok(native_s + handoff_s)
    })?;
    println!(
        "handoff: sizes from the server test trace; class mix {}",
        mix.unwrap_or_default()
    );
    let get = |k: &str| s.get(k).cloned().unwrap_or_default();
    ctx.metrics.median("setup_s", "s", &get("setup"));
    ctx.metrics.median("pipeline_s", "s", &plain);
    ctx.metrics.median("cpu_s", "s", &get("cpu"));
    // Median over children: one child's rare prediction pattern should
    // not set the run's value.
    ctx.metrics.median("peak_rss_bytes", "bytes", &get("rss"));
    ctx.metrics.median("native_s", "s", &get("native"));
    ctx.metrics
        .median("handoff_ops_per_s", "1/s", &get("handoff_rate"));

    if ctx.trace {
        let native_s = get("native").median();
        ctx.metrics.value("workloads.record_s", "s", native_s);
        for (name, key, unit) in [
            ("galloc.magazine_hit_rate", "hit_rate", "ratio"),
            ("galloc.short_allocs", "short_allocs", "count"),
            ("galloc.seg_resets", "seg_resets", "count"),
            ("galloc.epoch_ticks", "epoch_ticks", "count"),
            ("galloc.remote_frees", "remote_frees", "count"),
            ("galloc.handoff_alloc_ns_p50", "alloc_p50", "ns"),
            ("galloc.handoff_alloc_ns_p99", "alloc_p99", "ns"),
            ("galloc.handoff_free_ns_p50", "free_p50", "ns"),
            ("galloc.handoff_free_ns_p99", "free_p99", "ns"),
        ] {
            ctx.metrics.median(name, unit, &get(key));
        }
        // The same programs with the allocator left unactivated.
        let mut system = Samples::default();
        for _ in 0..SYSTEM_CHILDREN {
            let report = spawn(ctx, &exe, "system", true)?;
            let secs = report
                .get("native_s")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0);
            system.push(secs);
        }
        ctx.metrics.median("galloc.system_native_s", "s", &system);
        ctx.metrics.value(
            "galloc.native_speedup_vs_system",
            "ratio",
            system.median() / native_s,
        );
    }
    Ok(())
}

/// Runs one child (`mode` is `galloc` or `system`) and returns its
/// `key value` report. The child's spans join this run's.
fn spawn(
    ctx: &mut Ctx,
    exe: &std::path::Path,
    mode: &str,
    traced: bool,
) -> Result<BTreeMap<String, String>, String> {
    let offset = ctx.spans.now_ns();
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode, "--seed", &ctx.seed.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if ctx.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("{mode} child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut report = BTreeMap::new();
    for line in text.lines() {
        let mut parts = line.splitn(2, ' ');
        let (Some(key), Some(value)) = (parts.next(), parts.next()) else {
            continue;
        };
        if key == "span" {
            let f: Vec<&str> = value.split(' ').collect();
            if let [name, start, end] = f[..] {
                let (Ok(start), Ok(end)) = (start.parse::<u64>(), end.parse::<u64>()) else {
                    continue;
                };
                ctx.spans.add(span_name(name), offset + start, offset + end);
            }
        } else {
            report.insert(key.to_owned(), value.to_owned());
        }
    }
    Ok(report)
}

fn span_name(name: &str) -> &'static str {
    match name {
        "galloc.activate" => "galloc.activate",
        "workloads.record" => "workloads.record",
        _ => "galloc.handoff",
    }
}

/// The child: activate (or not), run the programs, hand off, report.
pub fn child_main(mode: &str, seed: u64, smoke: bool, trace: bool) -> i32 {
    let origin = Instant::now();
    let ns = || u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut out = String::new();
    let span = |out: &mut String, name: &str, start: u64, end: u64| {
        if trace {
            out.push_str(&format!("span {name} {start} {end}\n"));
        }
    };
    let galloc = match mode {
        "galloc" => true,
        "system" => false,
        other => {
            eprintln!("lpbench: unknown child mode {other:?}");
            return 2;
        }
    };
    if galloc {
        let t0 = ns();
        if let Err(e) = lifepred_galloc::activate() {
            eprintln!("lpbench: galloc activation failed: {e}");
            return 1;
        }
        let t1 = ns();
        span(&mut out, "galloc.activate", t0, t1);
        out.push_str(&format!("activate_s {}\n", (t1 - t0) as f64 * 1e-9));
    }

    // The programs, as `lifepred native` runs them.
    let t0 = ns();
    let mut programs = Vec::new();
    let mut sizes = Vec::new();
    for w in lifepred_workloads::all_workloads() {
        let s = ns();
        let registry = lifepred_trace::shared_registry();
        let n = w.inputs().len();
        let train = lifepred_workloads::record(w.as_ref(), 0, registry.clone());
        let test = lifepred_workloads::record(w.as_ref(), n - 1, registry);
        programs.push(format!(
            "{} {} {}",
            w.name(),
            train.records().len(),
            test.records().len()
        ));
        if w.name() == "server" {
            sizes = test.records().iter().map(|r| r.size as usize).collect();
        }
        span(&mut out, "workloads.record", s, ns());
    }
    let t1 = ns();
    out.push_str(&format!("native_s {}\n", (t1 - t0) as f64 * 1e-9));
    let programs = programs.join("; ");
    out.push_str(&format!("programs {programs}\n"));

    if sizes.is_empty() {
        eprintln!("lpbench: the server program recorded no allocations");
        return 1;
    }
    if galloc {
        let batches = if smoke { BATCHES / 10 } else { BATCHES };
        out.push_str(&format!("handoff_mix {}\n", class_mix(&sizes)));
        let t0 = ns();
        let h = handoff(seed, batches, &sizes);
        let t1 = ns();
        span(&mut out, "galloc.handoff", t0, t1);
        out.push_str(&format!("handoff_s {}\n", (t1 - t0) as f64 * 1e-9));
        out.push_str(&format!("handoff_allocs {}\n", h.allocs));
        out.push_str(&format!("handoff_failures {}\n", h.failures));
        for (key, s) in [("alloc", &h.alloc_ns), ("free", &h.free_ns)] {
            out.push_str(&format!("{key}_ns_p50 {}\n", s.median()));
            out.push_str(&format!("{key}_ns_p99 {}\n", s.percentile(99.0)));
        }
        let st = lifepred_galloc::stats();
        let allocs =
            st.small_allocs + st.fallback_large + st.fallback_align + st.fallback_exhausted;
        for (key, v) in [
            ("allocs", allocs as f64),
            ("small_allocs", st.small_allocs as f64),
            ("hit_rate", st.hit_rate()),
            ("short_allocs", st.short_allocs as f64),
            ("seg_resets", st.seg_resets as f64),
            ("epoch_ticks", st.epoch_ticks as f64),
            ("remote_frees", st.remote_frees as f64),
            ("wild_frees", st.wild_frees as f64),
            ("short_free_underflows", st.short_free_underflows as f64),
        ] {
            out.push_str(&format!("{key} {v}\n"));
        }
    }
    out.push_str(&format!("maxrss_bytes {}\n", usage(false).maxrss_bytes));
    print!("{out}");
    0
}

struct Handoff {
    allocs: u64,
    failures: u64,
    /// Per batch: nanoseconds per allocation (canary write included).
    alloc_ns: Samples,
    /// Per batch: nanoseconds per free (canary check included).
    free_ns: Samples,
}

/// Share of `sizes` in each of galloc's size classes, and above them
/// (`"16:3.1% 32:40.2% ... large:0.4%"`; empty classes left out).
fn class_mix(sizes: &[usize]) -> String {
    let mut counts = [0usize; NUM_CLASSES + 1];
    for &size in sizes {
        counts[class_for_size(size).unwrap_or(NUM_CLASSES)] += 1;
    }
    let share = |n: usize| 100.0 * n as f64 / sizes.len() as f64;
    let mut parts: Vec<String> = CLASS_SIZES
        .iter()
        .zip(counts)
        .filter(|&(_, n)| n > 0)
        .map(|(class, n)| format!("{class}:{:.1}%", share(n)))
        .collect();
    if counts[NUM_CLASSES] > 0 {
        parts.push(format!("large:{:.1}%", share(counts[NUM_CLASSES])));
    }
    parts.join(" ")
}

/// Bytes of canary at each end of a block of `size` bytes.
fn canary_len(size: usize) -> usize {
    (size / 2).min(8)
}

/// One block in flight: address, layout and canary.
type Block = (usize, Layout, u64);

/// Producer/consumer hand-off: this thread allocates blocks whose
/// sizes are drawn, seeded, from `sizes` and writes a canary at both
/// ends of each; a second thread checks the canaries and frees the
/// blocks, so every free is a cross-thread free. The bounded channel
/// keeps it a closed loop.
fn handoff(seed: u64, batches: usize, sizes: &[usize]) -> Handoff {
    let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<Block>>(4);
    let mut rng = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        // splitmix64
        rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    std::thread::scope(|scope| {
        let consumer = scope.spawn(move || {
            let mut free_ns = Samples::default();
            let mut bad = 0u64;
            for batch in rx {
                let started = Instant::now();
                let n = batch.len();
                for (addr, layout, canary) in batch {
                    let p = addr as *mut u8;
                    let (size, k) = (layout.size(), canary_len(layout.size()));
                    let (mut head, mut tail) = ([0u8; 8], [0u8; 8]);
                    // SAFETY: `p` came from `alloc(layout)` on the
                    // producer, is non-null and `size` bytes long, so
                    // the `k <= size / 2` bytes at each end are in
                    // bounds; it is freed exactly once, here.
                    unsafe {
                        std::ptr::copy_nonoverlapping(p, head.as_mut_ptr(), k);
                        std::ptr::copy_nonoverlapping(p.add(size - k), tail.as_mut_ptr(), k);
                        dealloc(p, layout);
                    }
                    if head[..k] != canary.to_le_bytes()[..k]
                        || tail[..k] != (!canary).to_le_bytes()[..k]
                    {
                        bad += 1;
                    }
                }
                free_ns.push(started.elapsed().as_nanos() as f64 / n.max(1) as f64);
            }
            (free_ns, bad)
        });
        let mut h = Handoff {
            allocs: 0,
            failures: 0,
            alloc_ns: Samples::default(),
            free_ns: Samples::default(),
        };
        for _ in 0..batches {
            let mut batch = Vec::with_capacity(BATCH);
            let started = Instant::now();
            for _ in 0..BATCH {
                let r = next();
                let size = sizes[(r % sizes.len() as u64) as usize].max(1);
                let layout = Layout::from_size_align(size, 8).expect("valid layout");
                // SAFETY: `layout` has a non-zero size.
                let p = unsafe { alloc(layout) };
                h.allocs += 1;
                if p.is_null() {
                    h.failures += 1;
                    continue;
                }
                let canary = r | 1;
                let k = canary_len(size);
                // SAFETY: `p` is a fresh block of `size` bytes, so the
                // `k <= size / 2` bytes at each end are in bounds.
                unsafe {
                    std::ptr::copy_nonoverlapping(canary.to_le_bytes().as_ptr(), p, k);
                    let tail = (!canary).to_le_bytes();
                    std::ptr::copy_nonoverlapping(tail.as_ptr(), p.add(size - k), k);
                }
                batch.push((p as usize, layout, canary));
            }
            h.alloc_ns
                .push(started.elapsed().as_nanos() as f64 / BATCH as f64);
            if tx.send(batch).is_err() {
                h.failures += 1;
                break;
            }
        }
        drop(tx);
        let (free_ns, bad) = consumer.join().expect("hand-off consumer panicked");
        h.free_ns = free_ns;
        h.failures += bad;
        h
    })
}
