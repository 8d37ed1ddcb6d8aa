//! Parameter lattices: a base scenario, a set of axes, and their
//! cartesian expansion into concrete, deduplicated run points.
//!
//! A [`Lattice`] is the declarative half of a design-space sweep: a
//! baseline [`Scenario`] plus one [`Axis`] per knob under study, each
//! axis listing the values it takes (first value = the axis's baseline).
//! [`Lattice::expand`] walks the cartesian product in a fixed
//! (axis-major, last-axis-fastest) order, so expansion is a pure
//! function of the declaration; [`dedupe`] then collapses points whose
//! *simulated configuration* is identical under
//! [`FleetPoint::dedupe_key`] — the canonical
//! [`compass::SimConfig::config_hash`] extended with the workload
//! identity and the harness-level checkpoint flag, neither of which
//! lives in `SimConfig`.

use compass::{PlacementPolicy, SchedPolicy, SimConfig};
use compass_simcheck::check::apply_scenario_knobs;
use compass_simcheck::{ArchPreset, Geometry, Scenario};

/// One axis value: which knob it sets and to what.
///
/// The enum doubles as the axis identity — every value in an [`Axis`]
/// must be the same variant ([`Knob::name`]), enforced at expansion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Knob {
    /// Architecture shape.
    Preset(ArchPreset),
    /// Cache geometry layered over the preset.
    Geometry(Geometry),
    /// Scheduler policy.
    Sched(SchedPolicy),
    /// Page placement.
    Placement(PlacementPolicy),
    /// Pre-emptive scheduling.
    Preempt(bool),
    /// Event-batch depth of every poster (frontends, OS threads, the
    /// bottom-half daemon).
    Depth(usize),
    /// Checkpoint gate: record with cuts, resume, require bit-identical
    /// stats (a harness-level knob, not a `SimConfig` field).
    Ckpt(bool),
}

impl Knob {
    /// The axis this value belongs to.
    pub fn name(&self) -> &'static str {
        match self {
            Knob::Preset(_) => "preset",
            Knob::Geometry(_) => "geometry",
            Knob::Sched(_) => "sched",
            Knob::Placement(_) => "placement",
            Knob::Preempt(_) => "preempt",
            Knob::Depth(_) => "depth",
            Knob::Ckpt(_) => "ckpt",
        }
    }

    /// Compact value label for reports (`sched=Affinity`, `depth=16`).
    pub fn label(&self) -> String {
        match self {
            Knob::Preset(v) => format!("{v:?}"),
            Knob::Geometry(v) => format!("{v:?}"),
            Knob::Sched(v) => format!("{v:?}"),
            Knob::Placement(v) => format!("{v:?}"),
            Knob::Preempt(v) | Knob::Ckpt(v) => format!("{v}"),
            Knob::Depth(v) => format!("{v}"),
        }
    }

    /// True for the transport knobs simcheck proves stats-neutral: a
    /// point differing from baseline only on these must produce
    /// bit-identical simulated statistics, so its sensitivity delta is
    /// an *oracle* (must be zero), not a measurement.
    pub fn stats_neutral(&self) -> bool {
        matches!(self, Knob::Depth(_) | Knob::Ckpt(_))
    }

    /// Applies the value onto a point.
    fn apply(&self, p: &mut FleetPoint) {
        match *self {
            Knob::Preset(v) => p.scenario.preset = v,
            Knob::Geometry(v) => p.scenario.geometry = v,
            Knob::Sched(v) => p.scenario.sched = v,
            Knob::Placement(v) => p.scenario.placement = v,
            Knob::Preempt(v) => p.scenario.preempt = v,
            Knob::Depth(v) => p.depth = v,
            Knob::Ckpt(v) => p.scenario.ckpt = v,
        }
    }
}

/// One swept knob: its values in declaration order, values[0] being the
/// axis baseline.
#[derive(Debug, Clone)]
pub struct Axis {
    /// Axis identity (all values share it).
    pub name: &'static str,
    /// The values, baseline first.
    pub values: Vec<Knob>,
}

/// One concrete run: a fully-specified scenario plus the batch depth
/// (the only swept knob that is not a [`Scenario`] field).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetPoint {
    /// Everything the scenario carries (workload, arch, knobs).
    pub scenario: Scenario,
    /// Event-batch depth of every poster.
    pub depth: usize,
}

impl FleetPoint {
    /// The `SimConfig` this point runs under, built exactly the way the
    /// runner builds it (same knob application, same defaults).
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::new(self.scenario.arch_config());
        apply_scenario_knobs(&mut cfg, &self.scenario, self.depth);
        cfg
    }

    /// Canonical dedupe key: the simulated configuration's hash
    /// ([`SimConfig::config_hash`], which already folds the architecture
    /// hash and every transport knob) extended with what `SimConfig`
    /// does not know — the workload identity (workload shape, process
    /// count, body seed) and the harness-level checkpoint gate. Two
    /// points with equal keys are the same run and produce bit-identical
    /// statistics; the fleet executes one of them.
    pub fn dedupe_key(&self) -> u64 {
        let sc = &self.scenario;
        compass_snap::fnv1a64(
            format!(
                "{:016x}|{:?}|{}|{}|{}",
                self.sim_config().config_hash(),
                sc.workload,
                sc.nprocs,
                sc.seed,
                sc.ckpt,
            )
            .as_bytes(),
        )
    }

    /// Human label: the axis-relevant coordinates.
    pub fn label(&self, workload: &str) -> String {
        let sc = &self.scenario;
        format!(
            "{workload} {:?}/{:?} sched={:?} place={:?} d{} ck{}",
            sc.preset, sc.geometry, sc.sched, sc.placement, self.depth, sc.ckpt as u8,
        )
    }
}

/// A named base scenario with its swept axes.
#[derive(Debug, Clone)]
pub struct Lattice {
    /// Workload name (from the simcheck preset catalogue, usually).
    pub workload: &'static str,
    /// The baseline scenario the axes mutate.
    pub base: Scenario,
    /// Swept knobs; an empty list means the single base point.
    pub axes: Vec<Axis>,
}

impl Lattice {
    /// A lattice around a named baseline scenario.
    pub fn new(workload: &'static str, base: Scenario) -> Self {
        Lattice {
            workload,
            base,
            axes: Vec::new(),
        }
    }

    /// Adds an axis. Every value must set the same knob, and an axis
    /// must not repeat — both are declaration bugs, caught here.
    pub fn axis(mut self, values: &[Knob]) -> Self {
        assert!(!values.is_empty(), "an axis needs at least one value");
        let name = values[0].name();
        assert!(
            values.iter().all(|v| v.name() == name),
            "axis mixes knobs: {values:?}"
        );
        assert!(
            self.axes.iter().all(|a| a.name != name),
            "axis {name} declared twice"
        );
        self.axes.push(Axis {
            name,
            values: values.to_vec(),
        });
        self
    }

    /// Number of points the expansion will produce (product of axis
    /// cardinalities; 1 for an axis-free lattice).
    pub fn cardinality(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// The baseline point: every axis at its first value.
    pub fn baseline(&self) -> FleetPoint {
        let mut p = FleetPoint {
            scenario: self.base,
            depth: 1,
        };
        for axis in &self.axes {
            axis.values[0].apply(&mut p);
        }
        p
    }

    /// Expands the full cartesian product in mixed-radix order (first
    /// axis slowest, last axis fastest) — a pure function of the
    /// declaration, so the job list, the dedupe outcome and the report
    /// ordering are all deterministic.
    pub fn expand(&self) -> Vec<FleetPoint> {
        let n = self.cardinality();
        let mut out = Vec::with_capacity(n);
        for mut ix in 0..n {
            let mut coords = vec![0usize; self.axes.len()];
            for (slot, axis) in coords.iter_mut().zip(&self.axes).rev() {
                *slot = ix % axis.values.len();
                ix /= axis.values.len();
            }
            let mut p = FleetPoint {
                scenario: self.base,
                depth: 1,
            };
            for (axis, &c) in self.axes.iter().zip(&coords) {
                axis.values[c].apply(&mut p);
            }
            out.push(p);
        }
        out
    }

    /// The points isolating `axis`: every other axis held at baseline,
    /// `axis` walking its values in order (element 0 = the baseline
    /// point itself). This is the slice the per-axis sensitivity deltas
    /// are computed over.
    pub fn axis_points(&self, axis: usize) -> Vec<FleetPoint> {
        let base = self.baseline();
        self.axes[axis]
            .values
            .iter()
            .map(|v| {
                let mut p = base;
                v.apply(&mut p);
                p
            })
            .collect()
    }
}

/// Collapses points with equal [`FleetPoint::dedupe_key`]s, preserving
/// first-appearance order. Returns the unique points and, for each input
/// point, the index of its representative in the unique list.
pub fn dedupe(points: &[FleetPoint]) -> (Vec<FleetPoint>, Vec<usize>) {
    let mut unique: Vec<FleetPoint> = Vec::new();
    let mut keys: Vec<u64> = Vec::new();
    let mut map = Vec::with_capacity(points.len());
    for p in points {
        let key = p.dedupe_key();
        match keys.iter().position(|&k| k == key) {
            Some(i) => map.push(i),
            None => {
                keys.push(key);
                unique.push(*p);
                map.push(unique.len() - 1);
            }
        }
    }
    (unique, map)
}
