//! The instrumentation controls of §4–5 under full simulation: the
//! simulation ON/OFF switch and the signal-handler event-generation
//! flag.

use compass::{ArchConfig, CpuCtx, SimBuilder};

fn run_with(body: impl FnMut(&mut CpuCtx) + 'static) -> compass::runner::RunReport {
    let b = SimBuilder::new(ArchConfig::simple_smp(1)).add_process(body);
    b.run()
}

#[test]
fn sim_off_regions_cost_nothing() {
    // "The ON/OFF switch can be inserted anywhere in the application …
    // to selectively disable instrumentation of uninteresting parts of
    // the code." (§5)
    let with_region = run_with(|cpu: &mut CpuCtx| {
        let a = cpu.malloc_pages(4096);
        cpu.touch_range(a, 4096, 64, true);
        cpu.sim_off();
        // A huge "uninteresting" stretch: start-up code, say.
        cpu.compute(10_000_000);
        let b = cpu.malloc_pages(4096);
        cpu.touch_range(b, 4096, 64, true);
        cpu.sim_on();
        cpu.compute(1_000);
    });
    let without_region = run_with(|cpu: &mut CpuCtx| {
        let a = cpu.malloc_pages(4096);
        cpu.touch_range(a, 4096, 64, true);
        // The second allocation happens inside the off region in the
        // other variant (its compute cost is suppressed there), so this
        // variant simply omits the whole stretch.
        let _b = cpu.malloc_pages(4096);
        cpu.compute(1_000);
    });
    // The off-region run must not accumulate the 10M compute cycles; it
    // may differ only by small allocator costs.
    let a = with_region.backend.global_cycles;
    let b = without_region.backend.global_cycles;
    assert!(
        a < b + 100_000,
        "sim-off region leaked simulated time: {a} vs {b}"
    );
    // And the off-region touches produced no memory events.
    assert_eq!(
        with_region.backend.mem.total_accesses() + 64, // touch of `b` suppressed
        without_region.backend.mem.total_accesses() + 64
    );
}

#[test]
fn signal_wrapper_suppresses_events_in_full_sim() {
    // §4.1: signal handlers run under a non-augmented wrapper that clears
    // the context record's event-generation flag.
    let r = run_with(|cpu: &mut CpuCtx| {
        let a = cpu.malloc_pages(4096);
        cpu.touch_range(a, 1024, 64, false); // 16 events
        cpu.with_signal_wrapper(|cpu| {
            // A "signal handler" touching memory: time accrues, no events.
            cpu.touch_range(a, 4096, 64, true);
            cpu.compute(500);
        });
        cpu.touch_range(a, 1024, 64, false); // 16 events
    });
    assert_eq!(
        r.backend.mem.total_accesses(),
        32,
        "handler touches must not reach the backend"
    );
    assert_eq!(r.frontends[0].suppressed_refs, 64);
}
