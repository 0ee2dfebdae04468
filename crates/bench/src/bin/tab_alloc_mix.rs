//! T5: allocation and reference mix; eager LIFO freeing vs GC burden (§2.3).
//!
//! Paper citations re-measured on our workloads: "85% of all object
//! allocations and deallocations involve contexts"; "over 91% of all memory
//! references are to contexts"; "85% of contexts allocated in Smalltalk are
//! indeed LIFO … explicitly freed upon procedure exit, eliminating much of
//! the garbage collection overhead."

use com_bench::print_table;
use com_core::MachineConfig;
use com_mem::AllocKind;
use com_workloads as workloads;

fn main() {
    println!("T5 reproduction — allocation/reference mix and LIFO context recovery");
    let mut rows = Vec::new();
    for w in workloads::all() {
        let (out, m) = workloads::run_com(&w, MachineConfig::default(), workloads::MAX_STEPS)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let st = m.space().stats();
        let s = out.stats;
        let total_ctx = s.contexts_allocated.max(1);
        let lifo_frac = s.contexts_freed_lifo as f64 / total_ctx as f64;
        // Context references are served by the context cache fast path
        // (that is the point of §2.3); count them from the cache, plus the
        // at:/at:put: traffic that reached context objects through memory.
        let cc = m.ctx_cache_stats().expect("context cache enabled");
        let ctx_refs = cc.reads + cc.writes + st.references_of(AllocKind::Context);
        let obj_refs = st.references_of(AllocKind::Object);
        let ref_frac = ctx_refs as f64 / (ctx_refs + obj_refs).max(1) as f64;
        rows.push(vec![
            w.name.to_string(),
            format!("{}", s.contexts_allocated),
            format!("{}", st.allocs_of(AllocKind::Object)),
            format!(
                "{:.1}%",
                100.0 * s.contexts_allocated as f64
                    / (s.contexts_allocated + st.allocs_of(AllocKind::Object)).max(1) as f64
            ),
            format!("{:.1}%", 100.0 * ref_frac),
            format!("{:.1}%", 100.0 * lifo_frac),
            format!("{}", s.contexts_left_to_gc),
        ]);
    }
    print_table(
        "Allocation and reference mix per workload",
        &[
            "workload",
            "ctx allocs",
            "obj allocs",
            "ctx alloc frac (paper 85%)",
            "ctx ref frac (paper 91%)",
            "LIFO frac (paper 85%)",
            "left to GC",
        ],
        &rows,
    );

    // GC burden with vs without eager LIFO freeing: run the closure-heavy
    // workload with a forced GC interval and compare collector work.
    let mut rows = Vec::new();
    for (label, eager) in [
        ("eager LIFO free (paper)", true),
        ("all contexts to GC", false),
    ] {
        let mut cfg = MachineConfig {
            gc_full_interval: Some(20_000),
            ..MachineConfig::default()
        };
        if !eager {
            cfg = cfg.without_eager_lifo_free();
        }
        let (out, _) = workloads::run_com(&workloads::CLOSURES, cfg, workloads::MAX_STEPS)
            .unwrap_or_else(|e| panic!("closures: {e}"));
        rows.push(vec![
            label.to_string(),
            format!("{}", out.stats.gc_runs),
            format!("{}", out.stats.gc_cycles),
            format!("{}", out.stats.contexts_freed_lifo),
            format!("{}", out.stats.contexts_left_to_gc),
            format!("{:.3}", out.stats.cpi().unwrap_or(f64::NAN)),
        ]);
    }
    print_table(
        "GC burden: eager LIFO freeing vs collector-only (closures workload)",
        &[
            "mode",
            "gc runs",
            "gc cycles",
            "freed LIFO",
            "left to GC",
            "CPI",
        ],
        &rows,
    );
    println!("\npaper: explicit LIFO freeing eliminates most context GC work -> gc cycles should drop sharply with eager freeing");
}
