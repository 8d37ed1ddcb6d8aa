//! `httplite`: the Apache + SPECWeb96 reproduction (§4.2).
//!
//! * [`specweb`] — the file-set generator (size-class structure of
//!   SPECWeb96) and the HTTP request *trace* generator;
//! * [`player`] — the trace player: "We solve this problem by generating
//!   an intermediate HTTP request trace file … We then implement a trace
//!   player that reads the trace file and feeds the requests to a web
//!   server." It drives the simulated Ethernet as the paper's client
//!   machines drive the real one;
//! * [`server`] — a pre-fork worker-process web server in the Apache
//!   mould: accept → recv → stat/open/read → send → close.

pub mod player;
pub mod server;
pub mod specweb;

pub use player::{PlayerConfig, PlayerObserved, PlayerStats, TracePlayer};
pub use server::{worker, ServerConfig, SharedTickets};
pub use specweb::{
    generate_fileset, generate_trace, FileSetConfig, Trace, TraceEntry, TraceStream,
};

#[cfg(test)]
mod tests {
    use super::*;
    use compass::{ArchConfig, SimBuilder};

    /// End-to-end SPECWeb-style run: trace player → Ethernet → kernel →
    /// pre-fork workers → responses — the paper's §4.2 setup in miniature.
    #[test]
    fn specweb_trace_is_served_to_completion() {
        let fileset = FileSetConfig { dirs: 1 };
        let requests = 12u32;
        let trace = generate_trace(fileset, requests, 4242);
        let expected_bytes = trace.total_bytes();
        let tickets = SharedTickets::new(requests as u64);
        let cfg = ServerConfig::default();

        let mut b = SimBuilder::new(ArchConfig::simple_smp(2))
            .prepare_kernel(move |k| {
                generate_fileset(k, fileset);
            })
            .traffic(TracePlayer::new(trace, 3, cfg.port));
        for _ in 0..2 {
            b = b.add_process(server::worker(cfg, std::sync::Arc::clone(&tickets)));
        }
        let r = b.run();

        assert_eq!(r.net.conns, requests as u64);
        // Every response body (plus headers) went out on the wire.
        assert!(r.net.tx_bytes >= expected_bytes);
        // The syscall mix the paper reports for SPECWeb.
        for name in [
            "naccept", "recv", "send", "statx", "kreadv", "open", "close",
        ] {
            assert!(
                r.syscalls.iter().any(|(n, _, _)| n == name),
                "missing syscall {name} in {:?}",
                r.syscalls
            );
        }
        // Web serving is OS-dominated (the paper measures ~85%).
        let user: u64 = r.backend.procs.iter().map(|p| p.by_mode[0]).sum();
        let os: u64 = r
            .backend
            .procs
            .iter()
            .map(|p| p.by_mode[1] + p.by_mode[2])
            .sum();
        assert!(
            os > 2 * user,
            "web serving must be OS-dominated: user={user} os={os}"
        );
        // Network interrupts fired for SYN/data/FIN frames.
        assert!(r.backend.irq_dispatches[1] as u32 >= 3 * requests - 2);
    }

    /// The scaled client model (keep-alive blocks, slow clients, churned
    /// connections) still serves every request exactly once, and the
    /// ticket pool sized by `expected_connections` drains exactly.
    #[test]
    fn keep_alive_churn_run_serves_every_request() {
        let fileset = FileSetConfig { dirs: 1 };
        let requests = 24u32;
        let trace = generate_trace(fileset, requests, 7);
        let cfg = ServerConfig {
            keep_alive: true,
            ..Default::default()
        };
        let player = TracePlayer::with_config(
            trace,
            PlayerConfig {
                keep_alive: 4,
                slow_every: 3,
                slow_factor: 4,
                churn_every: 2,
                ..PlayerConfig::http10(4, cfg.port)
            },
        );
        let stats = player.stats();
        let conns = player.expected_connections();
        assert_eq!(conns, 6 + 3); // 6 blocks of 4, every 2nd churned
        let tickets = SharedTickets::new(conns);

        let mut b = SimBuilder::new(ArchConfig::simple_smp(2))
            .prepare_kernel(move |k| {
                generate_fileset(k, fileset);
            })
            .traffic(player);
        for _ in 0..2 {
            b = b.add_process(server::worker(cfg, std::sync::Arc::clone(&tickets)));
        }
        let r = b.run();

        let seen = stats.observed();
        assert_eq!(seen.completed, requests as u64, "a trace entry was lost");
        assert_eq!(seen.churned, 3);
        assert_eq!(seen.connections, conns);
        assert_eq!(r.net.conns, conns, "server accepted a different conn count");
        assert_eq!(seen.latencies.len(), requests as usize);
        assert!(stats.latency_quantile(0.99) >= stats.latency_quantile(0.5));
    }

    /// The same run twice must be bit-identical.
    #[test]
    fn specweb_run_is_deterministic() {
        fn run_once() -> (u64, u64, Vec<(String, u64, u64)>) {
            let fileset = FileSetConfig { dirs: 1 };
            let trace = generate_trace(fileset, 6, 99);
            let tickets = SharedTickets::new(6);
            let cfg = ServerConfig {
                use_select: false,
                ..Default::default()
            };
            let mut b = SimBuilder::new(ArchConfig::simple_smp(2))
                .prepare_kernel(move |k| {
                    generate_fileset(k, fileset);
                })
                .traffic(TracePlayer::new(trace, 2, cfg.port));
            for _ in 0..2 {
                b = b.add_process(server::worker(cfg, std::sync::Arc::clone(&tickets)));
            }
            let r = b.run();
            (r.backend.global_cycles, r.net.tx_bytes, r.syscalls)
        }
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b);
    }
}
