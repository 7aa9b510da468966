//! The four workloads: what each runs, the reference outputs every run is
//! checked against, and the exact values the determinism witness compares.

use std::sync::Arc;

use clmpi::obs::ObsSummary;
use clmpi::{ClMpi, SystemConfig};
use himeno::{reference_jacobi, run_himeno_with_faults_mode, GridSize, HimenoConfig, Variant};
use minimpi::{run_world_faulty_mode, FaultPlan, Process};
use nanopowder::{reference_simulation, run_nanopowder_mode, NanoConfig, NanoVariant};
use simtime::{ExecMode, Trace};

use crate::mix;
use crate::tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HimenoPaper,
    HimenoWide,
    NanoBcast,
    TransferMix,
}

pub const ALL: [Workload; 4] = [
    Workload::HimenoPaper,
    Workload::HimenoWide,
    Workload::NanoBcast,
    Workload::TransferMix,
];

/// `himeno-paper`: Himeno M on 4 Cichlid nodes, the Fig. 9 configuration.
const PAPER_ITERS: usize = 12;
/// `himeno-wide`: the same grid on 64 RICC-model ranks. At 256 ranks the
/// run-to-run spread of host time on a shared 2-vCPU VM reached 0.22–0.37
/// (128 ranks: 0.10, 64 ranks: 0.07), too wide to gate on; the 256-rank
/// scheduler cost is measured by the layer probes instead.
const WIDE_RANKS: usize = 64;
const WIDE_ITERS: usize = 2;
/// `nano-bcast`: K=2048 sections → a 16.8 MB coefficient broadcast/step.
pub const NANO_SECTIONS: usize = 2048;
pub const NANO_RANKS: usize = 16;
const NANO_STEPS: usize = 1;

/// RICC's cost model with the node inventory grown to `nodes` (the
/// per-link parameters are unchanged), as the scale harness does.
pub fn ricc_scaled(nodes: usize) -> SystemConfig {
    let mut sys = SystemConfig::ricc();
    sys.cluster.nodes = sys.cluster.nodes.max(nodes);
    sys
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::HimenoPaper => "himeno-paper",
            Workload::HimenoWide => "himeno-wide",
            Workload::NanoBcast => "nano-bcast",
            Workload::TransferMix => "transfer-mix",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn ranks(self) -> usize {
        match self {
            Workload::HimenoPaper => 4,
            Workload::HimenoWide => WIDE_RANKS,
            Workload::NanoBcast => NANO_RANKS,
            Workload::TransferMix => mix::RANKS,
        }
    }

    /// The exec core, pinned here and never read from the environment.
    pub fn core(self) -> ExecMode {
        match self {
            Workload::HimenoPaper | Workload::TransferMix => ExecMode::Threads,
            Workload::HimenoWide | Workload::NanoBcast => ExecMode::Events,
        }
    }

    pub fn sys(self) -> SystemConfig {
        match self {
            Workload::HimenoPaper => SystemConfig::cichlid(),
            Workload::HimenoWide => ricc_scaled(WIDE_RANKS),
            Workload::NanoBcast => SystemConfig::ricc(),
            Workload::TransferMix => mix::sys(),
        }
    }

    fn plan(self, seed: u64) -> FaultPlan {
        match self {
            Workload::TransferMix => clmpi::data_plane_faults(FaultPlan::drops(seed, 0.01)),
            _ => FaultPlan::none(),
        }
    }

    fn himeno(self) -> Option<HimenoConfig> {
        let iters = match self {
            Workload::HimenoPaper => PAPER_ITERS,
            Workload::HimenoWide => WIDE_ITERS,
            _ => return None,
        };
        Some(HimenoConfig {
            size: GridSize::M,
            iters,
            sys: self.sys(),
            nodes: self.ranks(),
            strategy: None,
            halo: Default::default(),
        })
    }

    fn nano(self) -> NanoConfig {
        NanoConfig {
            sections: NANO_SECTIONS,
            steps: NANO_STEPS,
            sys: self.sys(),
            nodes: self.ranks(),
        }
    }
}

/// Interior planes `[start, start + n)` of `rank` under the Himeno slab
/// decomposition (1-D along the slowest axis, remainder to low ranks).
fn slab(size: GridSize, nodes: usize, rank: usize) -> (usize, usize) {
    let interior = size.dims().0 - 2;
    let (base, rem) = (interior / nodes, interior % nodes);
    (
        1 + rank * base + rank.min(rem),
        base + usize::from(rank < rem),
    )
}

/// Partial residual of one Jacobi sweep over global planes `[lo, hi)`,
/// summed point by point in the solver's order (the stencil with the
/// benchmark's constant coefficients, as `himeno` defines it).
fn residual(p: &[f32], mj: usize, mk: usize, lo: usize, hi: usize) -> f64 {
    const A3: f32 = 1.0 / 6.0;
    let plane = mj * mk;
    let mut gosa = 0.0f64;
    for i in lo..hi {
        for j in 1..mj - 1 {
            for k in 1..mk - 1 {
                let c = i * plane + j * mk + k;
                let s0 = p[c + plane] + p[c + mk] + p[c + 1] + p[c - plane] + p[c - mk] + p[c - 1];
                let ss = s0 * A3 - p[c];
                gosa += (ss * ss) as f64;
            }
        }
    }
    gosa
}

/// The serial Himeno reference, folded the way the distributed run folds
/// it: each rank sums its own planes (the clMPI variant sweeps a slab of
/// two or more planes as two halves), and the run sums ranks in order.
/// The pressure field is bitwise the same, so both values must match the
/// distributed run bit for bit.
struct HimenoExpect {
    gosa: f64,
    checksum: f64,
    serial_s: f64,
}

fn himeno_expect(cfg: &HimenoConfig) -> Result<HimenoExpect, String> {
    let (size, nodes) = (cfg.size, cfg.nodes);
    let (_, mj, mk) = size.dims();
    let before_last = reference_jacobi(size, cfg.iters - 1);
    let t = std::time::Instant::now();
    let fin = reference_jacobi(size, cfg.iters);
    let serial_s = t.elapsed().as_secs_f64();
    // The residual oracle must reproduce the reference solver's own
    // global residual before it is trusted per rank.
    let global = residual(&before_last.p, mj, mk, 1, size.dims().0 - 1);
    if global.to_bits() != fin.gosa.to_bits() {
        return Err(format!(
            "residual oracle {global} != reference_jacobi gosa {}",
            fin.gosa
        ));
    }
    let mut gosa = Vec::with_capacity(nodes);
    let mut checksum = Vec::with_capacity(nodes);
    for rank in 0..nodes {
        let (start, n) = slab(size, nodes, rank);
        let r = |lo, hi| residual(&before_last.p, mj, mk, lo, hi);
        gosa.push(match n {
            0 => 0.0,
            1 => r(start, start + 1),
            _ => {
                let ha = start + n / 2;
                r(ha, start + n) + r(start, ha)
            }
        });
        let mut sum = 0.0f64;
        for i in start..start + n {
            for j in 1..mj - 1 {
                for k in 1..mk - 1 {
                    sum += fin.p[(i * mj + j) * mk + k].abs() as f64;
                }
            }
        }
        checksum.push(sum);
    }
    Ok(HimenoExpect {
        gosa: gosa.iter().sum(),
        checksum: checksum.iter().sum(),
        serial_s,
    })
}

/// Everything prepared once per process, outside any timed interval.
pub struct Prepared {
    pub workload: Workload,
    pub seed: u64,
    expect: Expect,
}

enum Expect {
    Himeno(HimenoExpect),
    /// `reference_simulation`'s result and its host seconds.
    Nano(Vec<f32>, f64),
    Mix(Arc<mix::Schedule>),
}

fn seconds(f: impl FnOnce()) -> f64 {
    let t = std::time::Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

impl Prepared {
    pub fn new(workload: Workload, seed: u64) -> Result<Prepared, String> {
        let expect = match workload {
            Workload::HimenoPaper | Workload::HimenoWide => {
                Expect::Himeno(himeno_expect(&workload.himeno().expect("himeno workload"))?)
            }
            Workload::NanoBcast => {
                let c = workload.nano();
                let mut n = Vec::new();
                let s = seconds(|| n = reference_simulation(c.sections, c.steps));
                Expect::Nano(n, s)
            }
            Workload::TransferMix => Expect::Mix(Arc::new(mix::Schedule::new(seed))),
        };
        Ok(Prepared {
            workload,
            seed,
            expect,
        })
    }

    /// Host seconds of the serial Himeno and nanopowder solvers: on this
    /// workload's problem, or on the paper workload of that application
    /// (`himeno-paper`, `nano-bcast`) when this workload runs the other.
    pub fn serial_s(&self) -> (f64, f64) {
        let himeno = match &self.expect {
            Expect::Himeno(e) => e.serial_s,
            _ => {
                let c = Workload::HimenoPaper.himeno().expect("himeno workload");
                seconds(|| drop(reference_jacobi(c.size, c.iters)))
            }
        };
        let nano = match &self.expect {
            Expect::Nano(_, s) => *s,
            _ => {
                let c = Workload::NanoBcast.nano();
                seconds(|| drop(reference_simulation(c.sections, c.steps)))
            }
        };
        (himeno, nano)
    }

    /// Run the workload once. This call is the timed interval.
    pub fn execute(&self) -> Raw {
        let w = self.workload;
        match &self.expect {
            Expect::Himeno(_) => tracer::timed("himeno", "run_himeno_with_faults_mode", || {
                Raw::Himeno(run_himeno_with_faults_mode(
                    Variant::ClMpi,
                    w.himeno().expect("himeno workload"),
                    w.plan(self.seed),
                    w.core(),
                ))
            }),
            Expect::Nano(..) => tracer::timed("nanopowder", "run_nanopowder_mode", || {
                Raw::Nano(run_nanopowder_mode(NanoVariant::ClMpi, w.nano(), w.core()))
            }),
            Expect::Mix(sched) => tracer::timed("minimpi", "run_world_faulty_mode", || {
                let sched = sched.clone();
                Raw::Mix(run_world_faulty_mode(
                    w.sys().cluster,
                    w.ranks(),
                    w.plan(self.seed),
                    w.core(),
                    move |p: Process| mix::rank_body(p, sched.clone()),
                ))
            }),
        }
    }

    /// Check one run's outputs and reduce it to the exact values the
    /// benchmark reports and the witness compares.
    pub fn evaluate(&self, raw: Raw) -> Rep {
        let mut errors = Vec::new();
        let (virtual_ns, events, drops, trace, app) = match (raw, &self.expect) {
            (Raw::Himeno(r), Expect::Himeno(e)) => {
                if r.gosa.to_bits() != e.gosa.to_bits() {
                    errors.push(format!("gosa {:e} != reference {:e}", r.gosa, e.gosa));
                }
                if r.checksum.to_bits() != e.checksum.to_bits() {
                    errors.push(format!(
                        "checksum {:e} != reference {:e}",
                        r.checksum, e.checksum
                    ));
                }
                let drops = r.fault_counts.dropped();
                (r.elapsed_ns, r.sched_events, drops, Some(r.trace), r.gflops)
            }
            (Raw::Nano(r), Expect::Nano(want, _)) => {
                let same = r.final_n.len() == want.len()
                    && r.final_n
                        .iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    errors.push("final_n differs from reference_simulation".into());
                }
                (r.total_ns, r.sched_events, 0, None, r.step_ns as f64 / 1e6)
            }
            (Raw::Mix(r), Expect::Mix(_)) => {
                for (rank, o) in r.outputs.iter().enumerate() {
                    errors.extend(o.errors.iter().map(|e| format!("r{rank}: {e}")));
                }
                let end = r.outputs.iter().map(|o| o.end_ns).max().unwrap_or(0);
                (end, r.events, r.fault_counts.dropped(), Some(r.trace), 0.0)
            }
            _ => unreachable!("raw result matches the prepared workload"),
        };
        let summary = trace.as_ref().map(|t| {
            tracer::timed("clmpi", "ObsSummary::from_trace", || {
                ObsSummary::from_trace(t)
            })
        });
        let ledger = trace.as_ref().map(Ledger::from_trace).unwrap_or_default();
        Rep {
            virtual_ns,
            events,
            fault_drops: drops,
            summary,
            ledger,
            app,
            errors,
        }
    }

    /// Launch and tear down this workload's world (same size, system and
    /// core), each rank only building its runtime, a queue and the device
    /// buffers the workload allocates. Returns host seconds.
    pub fn setup_once(&self) -> f64 {
        let w = self.workload;
        let sizes: Arc<dyn Fn(usize) -> Vec<usize> + Send + Sync> = match w {
            Workload::HimenoPaper | Workload::HimenoWide => {
                let cfg = w.himeno().expect("himeno workload");
                Arc::new(move |rank| {
                    let (_, mj, mk) = cfg.size.dims();
                    let bytes = (slab(cfg.size, cfg.nodes, rank).1 + 2) * mj * mk * 4;
                    vec![bytes, bytes]
                })
            }
            Workload::NanoBcast => Arc::new(|_| {
                let k = NANO_SECTIONS;
                vec![k * k * 4, k * 4, k / NANO_RANKS * 4]
            }),
            Workload::TransferMix => Arc::new(|_| mix::buffer_sizes().to_vec()),
        };
        let sys = w.sys();
        let t = std::time::Instant::now();
        run_world_faulty_mode(
            sys.cluster.clone(),
            w.ranks(),
            w.plan(self.seed),
            w.core(),
            move |p: Process| {
                let rt = ClMpi::new(&p, sys.clone());
                let _q = rt.context().create_queue(0, format!("r{}", p.rank()));
                let _bufs: Vec<_> = sizes(p.rank())
                    .into_iter()
                    .map(|n| rt.context().create_buffer(n))
                    .collect();
                rt.shutdown(&p.actor);
            },
        );
        t.elapsed().as_secs_f64()
    }
}

/// A workload run's result, before it is checked.
pub enum Raw {
    Himeno(himeno::HimenoResult),
    Nano(nanopowder::NanoResult),
    Mix(minimpi::WorldResult<mix::RankOut>),
}

/// Virtual time per pipeline stage, summed over the run's op spans by
/// category, plus the overlap accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    pub compute_ns: u64,
    pub exposed_comm_ns: u64,
    pub hidden_pct: f64,
    pub pack_ns: u64,
    pub d2h_ns: u64,
    pub h2d_ns: u64,
    pub wire_ns: u64,
    pub retry_ns: u64,
    pub forward_ns: u64,
    pub reduce_ns: u64,
    /// Wire chunk spans: first sends and collective forwards.
    pub chunks: u64,
}

impl Ledger {
    pub fn from_trace(trace: &Trace) -> Ledger {
        let mut l = Ledger::default();
        for o in trace.ops() {
            let d = o.end - o.start;
            match o.cat.as_str() {
                "stage.pack" | "stage.unpack" => l.pack_ns += d,
                "stage.d2h" => l.d2h_ns += d,
                "stage.h2d" => l.h2d_ns += d,
                "chunk" => {
                    l.wire_ns += d;
                    l.chunks += 1;
                }
                "retry" => l.retry_ns += d,
                "forward" => {
                    l.forward_ns += d;
                    l.chunks += 1;
                }
                "reduce" => l.reduce_ns += d,
                _ => {}
            }
        }
        let overlap = clmpi::OverlapReport::from_trace(trace);
        let (mut comm, mut hidden) = (0u64, 0u64);
        for r in &overlap.ranks {
            l.compute_ns += r.compute_ns;
            l.exposed_comm_ns += r.comm_ns - r.overlap_ns;
            comm += r.comm_ns;
            hidden += r.overlap_ns;
        }
        l.hidden_pct = if comm > 0 {
            100.0 * hidden as f64 / comm as f64
        } else {
            0.0
        };
        l
    }
}

/// One checked run, reduced to exact values.
pub struct Rep {
    pub virtual_ns: u64,
    pub events: u64,
    pub fault_drops: u64,
    /// `None` for nanopowder, whose entry point returns no trace.
    pub summary: Option<ObsSummary>,
    pub ledger: Ledger,
    /// Himeno: virtual GFLOPS (Fig. 9). Nanopowder: virtual ms per step
    /// (Fig. 10). Transfer-mix: 0.
    pub app: f64,
    /// Output-check failures (empty when the run is correct).
    pub errors: Vec<String>,
}

/// Sum of one [`clmpi::obs::RankSummary`] field over ranks.
pub fn total(s: &ObsSummary, f: impl Fn(&clmpi::obs::RankSummary) -> u64) -> u64 {
    s.ranks.values().map(f).sum()
}

impl Rep {
    /// Operations this run attempted and how many failed. A run without
    /// a trace counts as one operation; a run whose output check failed
    /// counts every operation as failed.
    pub fn ops(&self) -> (u64, u64) {
        let (ops, failed) = match &self.summary {
            Some(s) => (total(s, |r| r.ops).max(1), total(s, |r| r.ops_failed)),
            None => (1, 0),
        };
        (ops, if self.errors.is_empty() { failed } else { ops })
    }

    /// The exact values two runs of the same inputs must agree on.
    pub fn witness(&self) -> String {
        let obs = self.summary.as_ref().map_or(0, ObsSummary::hash);
        format!(
            "virtual_ns={} events={} drops={} obs={obs:016x} ledger={:?}",
            self.virtual_ns, self.events, self.fault_drops, self.ledger
        )
    }
}
