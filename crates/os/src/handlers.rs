//! Bottom-half interrupt handlers (§3.2).
//!
//! "Interrupt handlers run in the bottom half of kernel, operating in the
//! kernel address space. This implies that they must be invoked within the
//! OS server during simulation."
//!
//! Handlers drain the device postbox under the simulated `INTR` lock and
//! filter by the handler's current clock, so the set of records each
//! invocation services — and therefore every downstream wakeup — is
//! deterministic no matter whether the kernel daemon or a pseudo-interrupt
//! (run by the interrupted process on its own task) gets there first in
//! host time.

use crate::kctx::KernelCtx;
use crate::server::{locks, KernelShared};
use crate::waitq::Chan;
use compass_comm::{DiskCompletion, Frame, FrameKind, TimerTick};
use compass_isa::ProcessId;
use compass_mem::VAddr;

/// Drains and services all device work due at the handler's clock.
///
/// The handler context may carry batching-only perf state (the daemon's
/// batching sink): drains then rely on the clock being *exact*, which
/// holds because each drain pass starts right after a blocking post (the
/// `INTR` lock, or the previous handler's trailing unlock/unblock) — the
/// settled-at-drain invariant checked below. The backend releases that
/// post only once every device task due by its reply time has run, so
/// each drain sees exactly the records due by the clock.
pub fn run_pending(kc: &mut KernelCtx<'_>, k: &KernelShared) {
    kc.lock(locks::INTR);
    loop {
        k.check_settled(kc, "device drain");
        let disks = k.devshared.drain_disk_until(kc.clock);
        let frames = k.devshared.drain_frames_until(kc.clock);
        let ticks = k.devshared.drain_ticks_until(kc.clock);
        if disks.is_empty() && frames.is_empty() && ticks.is_empty() {
            break;
        }
        for c in disks {
            disk_intr(kc, k, c);
        }
        for f in frames {
            ether_intr(kc, k, f);
        }
        for t in ticks {
            timer_intr(kc, k, t);
        }
    }
    kc.unlock(locks::INTR);
}

/// Disk-completion handler: finish the buffer, wake sleepers.
pub fn disk_intr(kc: &mut KernelCtx<'_>, k: &KernelShared, c: DiskCompletion) {
    let start = kc.clock;
    kc.compute(k.cfg.disk_intr);
    let Some(info) = k.take_token(c.token) else {
        // Unknown token: a raw-mode leftover or duplicated completion.
        k.add_intr_cycles(0, kc.clock - start);
        return;
    };
    kc.lock(locks::BUF);
    // The simulated BUF lock covers the buffer and its wait channel; the
    // host guard is dropped before the header touch posts an event.
    let (hdr, waiters) = {
        let mut bufs = k.bufs.lock();
        let hdr = bufs.peek(info.tag.0, info.tag.1).map(|id| {
            let b = bufs.buf_mut(id);
            // Only finish the transfer if this buffer still caches the
            // tag the token was issued for (eviction writebacks race
            // with retagging by design).
            if b.io_pending {
                b.io_pending = false;
                if !c.write {
                    b.valid = true;
                }
            }
            b.hdr_addr
        });
        (hdr, k.waitq.wake_all(info.chan))
    };
    if let Some(hdr) = hdr {
        kc.store(hdr, 32);
    }
    kc.unlock(locks::BUF);
    for w in waiters {
        kc.unblock(w);
    }
    k.add_intr_cycles(0, kc.clock - start);
}

/// Ethernet receive handler: mbuf handling, IP/TCP input, socket
/// delivery, wakeups.
pub fn ether_intr(kc: &mut KernelCtx<'_>, k: &KernelShared, f: Frame) {
    let start = kc.clock;
    kc.compute(k.cfg.ether_intr);
    // Grab an mbuf for the DMA'd frame.
    kc.lock(locks::KMEM);
    let mbuf = k.heap.alloc(2048);
    kc.store(mbuf, 32);
    kc.unlock(locks::KMEM);
    let plen = f.payload.len() as u32;
    if plen > 0 {
        kc.touch_range(mbuf + 64, plen, true);
        kc.compute((plen as u64 * k.cfg.checksum_per_byte_x100) / 100);
    }
    kc.compute(k.cfg.ip_per_packet + k.cfg.tcp_per_packet);

    kc.lock(locks::NET);
    // The simulated NET lock covers the stack and its wait channels; the
    // host guard is dropped before the protocol touches post events.
    enum Touch {
        Store(VAddr, u16),
        Copy(VAddr, VAddr, u32),
    }
    let (touch, waiters): (Option<Touch>, Vec<ProcessId>) = {
        let mut net = k.net.lock();
        match f.kind {
            FrameKind::Syn => {
                let port = u16::from_be_bytes([
                    f.payload.first().copied().unwrap_or(0),
                    f.payload.get(1).copied().unwrap_or(80),
                ]);
                let pcb = k.heap.alloc(192);
                let waiters = if net.syn(f.conn, port, pcb) {
                    net.stats.rx_frames += 1;
                    let lk = net.listener(port).expect("listener exists").kaddr;
                    k.waitq.wake_all(Chan(lk.0))
                } else {
                    Vec::new() // no listener: dropped (RST)
                };
                (Some(Touch::Store(pcb, 64)), waiters)
            }
            FrameKind::Data => {
                net.stats.rx_frames += 1;
                if net.deliver(f.conn, &f.payload) {
                    let pcb = net.conn(f.conn).expect("delivered").pcb_addr;
                    // Append into the socket buffer.
                    (
                        Some(Touch::Copy(mbuf + 64, pcb + 128, plen.max(1))),
                        k.waitq.wake_all(Chan(pcb.0)),
                    )
                } else {
                    (None, Vec::new())
                }
            }
            FrameKind::Ack => {
                // Pure ACK: TCP input processing against the PCB, nothing
                // delivered, nobody woken.
                net.stats.rx_frames += 1;
                let touch = net.conn(f.conn).map(|c| Touch::Store(c.pcb_addr, 32));
                (touch, Vec::new())
            }
            FrameKind::Fin => {
                net.stats.rx_frames += 1;
                net.peer_close(f.conn);
                let waiters = match net.conn(f.conn) {
                    Some(c) => k.waitq.wake_all(Chan(c.pcb_addr.0)),
                    None => Vec::new(),
                };
                (None, waiters)
            }
        }
    };
    match touch {
        Some(Touch::Store(a, size)) => kc.store(a, size),
        Some(Touch::Copy(src, dst, len)) => kc.copy(src, dst, len),
        None => {}
    }
    kc.unlock(locks::NET);
    kc.lock(locks::KMEM);
    k.heap.free(mbuf, 2048);
    kc.unlock(locks::KMEM);
    for w in waiters {
        kc.unblock(w);
    }
    k.add_intr_cycles(1, kc.clock - start);
}

/// Interval-timer handler: bookkeeping cost only (the backend does the
/// pre-emption decision itself, §3.3.2).
pub fn timer_intr(kc: &mut KernelCtx<'_>, k: &KernelShared, _t: TimerTick) {
    let start = kc.clock;
    kc.compute(k.cfg.timer_intr);
    k.add_intr_cycles(2, kc.clock - start);
}
