//! Quickstart: simulate one process reading a file on a 2-CPU SMP.
//!
//! Shows the COMPASS structure end to end (paper Figure 1): the process
//! runs as a frontend generating memory events, its OS calls run the
//! simulated kernel code on its own task, the buffer cache misses become disk
//! transfers, the disk interrupt wakes the process through the bottom-half
//! daemon, and the backend attributes every cycle.
//!
//! Run: `cargo run --release --example quickstart`

use compass::report::{format_syscall_table, format_table1};
use compass::{ArchConfig, CpuCtx, SimBuilder};
use compass_os::fs::FileData;
use compass_os::{OsCall, SysVal};

fn main() {
    let arch = ArchConfig::simple_smp(2);
    println!(
        "target: {} CPUs x {} node(s), simple (one cache level) backend\n",
        arch.ncpus(),
        arch.nodes
    );

    let report = SimBuilder::new(arch)
        .prepare_kernel(|k| {
            k.create_file("/data/input", FileData::Synthetic { len: 64 * 1024 });
        })
        .add_process(|cpu: &mut CpuCtx| {
            // Simulated malloc gives addresses in this process's 32-bit
            // space; the backend pages them in on first touch.
            let buf = cpu.malloc_pages(8192);
            let fd = match cpu.os_call(OsCall::Open {
                path: "/data/input".into(),
                create: false,
            }) {
                Ok(SysVal::NewFd(fd)) => fd,
                other => panic!("open: {other:?}"),
            };
            let mut total = 0usize;
            loop {
                match cpu.os_call(OsCall::Read { fd, len: 8192, buf }) {
                    Ok(SysVal::Data(d)) if d.is_empty() => break,
                    Ok(SysVal::Data(d)) => {
                        total += d.len();
                        // Process the data in user mode.
                        cpu.touch_range(buf, d.len() as u32, 64, false);
                        cpu.compute(2_000);
                    }
                    other => panic!("read: {other:?}"),
                }
            }
            cpu.os_call(OsCall::Close { fd }).unwrap();
            assert_eq!(total, 64 * 1024);
        })
        .run();

    println!("simulated cycles : {}", report.backend.global_cycles);
    println!("events processed : {}", report.backend.events);
    println!("disk transfers   : {:?}", report.backend.disk_ops);
    println!("buffer cache     : {:?}", report.bufcache);
    println!("\n{}", format_table1("quickstart", &report));
    println!("\n{}", format_syscall_table(&report));
}
