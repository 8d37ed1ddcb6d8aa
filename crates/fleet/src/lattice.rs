//! Parameter lattices: a base scenario, a set of axes, and their
//! cartesian expansion into concrete, deduplicated scenarios.
//!
//! A [`Lattice`] is the declarative half of a design-space sweep: a
//! baseline [`Scenario`] plus one [`Axis`] per simulated knob under
//! study, each axis listing the values it takes (first value = the
//! axis's baseline). [`Lattice::expand`] walks the cartesian product in
//! a fixed (axis-major, last-axis-fastest) order, so expansion is a pure
//! function of the declaration; [`expand_preset`] then collapses
//! scenarios with equal [`dedupe_key`]s.

use crate::run::Job;
use compass::{PlacementPolicy, SchedPolicy, SimConfig};
use compass_simcheck::check::apply_scenario_knobs;
use compass_simcheck::{ArchPreset, Geometry, Scenario};
use std::collections::HashSet;

/// One axis value: which simulated knob it sets and to what.
///
/// The enum doubles as the axis identity — every value in an [`Axis`]
/// must be the same variant ([`Knob::name`]), enforced at declaration.
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
        }
    }

    /// Compact value label for reports (`Affinity`, `true`).
    pub fn label(&self) -> String {
        match self {
            Knob::Preset(v) => format!("{v:?}"),
            Knob::Geometry(v) => format!("{v:?}"),
            Knob::Sched(v) => format!("{v:?}"),
            Knob::Placement(v) => format!("{v:?}"),
            Knob::Preempt(v) => format!("{v}"),
        }
    }

    /// Applies the value onto a scenario.
    fn apply(&self, sc: &mut Scenario) {
        match *self {
            Knob::Preset(v) => sc.preset = v,
            Knob::Geometry(v) => sc.geometry = v,
            Knob::Sched(v) => sc.sched = v,
            Knob::Placement(v) => sc.placement = v,
            Knob::Preempt(v) => sc.preempt = v,
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

    /// Expands the full cartesian product in mixed-radix order (first
    /// axis slowest, last axis fastest; element 0 is the baseline) — a
    /// pure function of the declaration, so the job list, the dedupe
    /// outcome and the report ordering are all deterministic.
    pub fn expand(&self) -> Vec<Scenario> {
        (0..self.cardinality())
            .map(|mut ix| {
                let mut sc = self.base;
                for axis in self.axes.iter().rev() {
                    axis.values[ix % axis.values.len()].apply(&mut sc);
                    ix /= axis.values.len();
                }
                sc
            })
            .collect()
    }
}

/// Canonical dedupe key of a scenario: the hash of the `SimConfig` the
/// fleet runs it under ([`SimConfig::config_hash`], which folds the
/// architecture hash and every backend knob) extended with what
/// `SimConfig` does not know — the workload shape, the process count
/// and the body seed. Two scenarios with equal keys are the same run and
/// produce bit-identical statistics; the fleet executes one of them.
pub fn dedupe_key(sc: &Scenario) -> u64 {
    let mut cfg = SimConfig::new(sc.arch_config());
    let shipped = cfg.backend.batch_depth;
    apply_scenario_knobs(&mut cfg, sc, shipped);
    compass_snap::fnv1a64(
        format!(
            "{:016x}|{:?}|{}|{}",
            cfg.config_hash(),
            sc.workload,
            sc.nprocs,
            sc.seed,
        )
        .as_bytes(),
    )
}

/// Expands a preset's lattices in declaration order and keeps the first
/// scenario of every [`dedupe_key`] — sub-sweeps sharing a baseline run
/// it once, under the workload name of its first appearance. Returns
/// `(total points, unique jobs)`.
pub fn expand_preset(lattices: &[Lattice]) -> (usize, Vec<Job>) {
    let mut points = 0;
    let mut seen = HashSet::new();
    let mut jobs = Vec::new();
    for lat in lattices {
        for scenario in lat.expand() {
            points += 1;
            if seen.insert(dedupe_key(&scenario)) {
                jobs.push(Job {
                    scenario,
                    workload: lat.workload,
                });
            }
        }
    }
    (points, jobs)
}
