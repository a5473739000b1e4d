//! `compile_pipeline`: what a compiler pays per division call site —
//! plan, tournament (unsigned quotients and direct remainders only),
//! lower and optimize, emit for every target, price on every model.
//!
//! The cell corpus is fixed, so `code_insts` (its generated-code size)
//! reads the same on every seed and any change to it is exact; the seed
//! picks the order cells are compiled in and the inputs each compiled
//! program is checked on. Cache and kernel changes should not move it.

use magicdiv::plan::{
    DivPlan, DivisibilityPlan, DwordPlan, ExactPlan, FloorPlan, SdivPlan, UdivPlan, UremPlan,
};
use magicdiv::DivisorError;
use magicdiv_bench::{run_tournament, run_urem_tournament};
use magicdiv_codegen::{emit_assembly, Target};
use magicdiv_ir::{
    lower_divisibility, lower_dword_div, lower_exact_div, lower_floor_div, lower_sdiv, lower_udiv,
    lower_urem, mask, optimize, sign_extend, Builder, Program,
};
use magicdiv_simcpu::predictions_for_plan;

use crate::harness::{lap, Layer, Probe, Workload};
use crate::oracle;
use crate::rng::{mix, Rng};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Unsigned,
    Signed,
    Floor,
    Exact,
    Urem,
    Divtest,
    Dword,
}

const SHAPES: [Shape; 7] = [
    Shape::Unsigned,
    Shape::Signed,
    Shape::Floor,
    Shape::Exact,
    Shape::Urem,
    Shape::Divtest,
    Shape::Dword,
];

impl Shape {
    /// The tournament layer, for the shapes that run one. Width 16 is
    /// left out of those shapes: exhaustive certification there costs
    /// ~13 ms a cell and would swamp the run.
    fn tournament(self) -> Option<Layer> {
        match self {
            Shape::Unsigned => Some(Layer::TournamentUdiv),
            Shape::Urem => Some(Layer::TournamentUrem),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    shape: Shape,
    width: u32,
    d: i128,
}

/// Fixed corpus seed: the corpus must not depend on `--seed`.
const CORPUS_SEED: u64 = 0x1994_0620;
const CELLS_PER_SHAPE: usize = 48;
const CHECK_INPUTS: usize = 64;

/// 48 cells per shape (equal shares, so 5/7 of cells skip the
/// tournament): widths 32/64 for tournament shapes, 8 to 64 otherwise,
/// divisors log-uniform in size.
fn corpus() -> Vec<Cell> {
    let mut rng = Rng::new(CORPUS_SEED);
    let mut cells = Vec::with_capacity(SHAPES.len() * CELLS_PER_SHAPE);
    for shape in SHAPES {
        let widths: &[u32] = if shape.tournament().is_some() {
            &[32, 64]
        } else {
            &[8, 16, 32, 64]
        };
        for &width in widths {
            for _ in 0..CELLS_PER_SHAPE / widths.len() {
                let d = match shape {
                    Shape::Signed | Shape::Floor => i128::from(rng.signed_divisor(width - 1)),
                    _ => i128::from(rng.divisor(width)),
                };
                cells.push(Cell { shape, width, d });
            }
        }
    }
    cells
}

fn build_plan(c: Cell) -> Result<DivPlan, DivisorError> {
    let (d, du, w) = (c.d, c.d as u128, c.width);
    Ok(match c.shape {
        Shape::Unsigned => UdivPlan::new(du, w)?.into(),
        Shape::Signed => SdivPlan::new(d, w)?.into(),
        Shape::Floor => FloorPlan::new(d, w)?.into(),
        Shape::Exact => ExactPlan::new_unsigned(du, w)?.into(),
        Shape::Urem => UremPlan::new_direct(du, w)?.into(),
        Shape::Divtest => DivisibilityPlan::new(du, w)?.into(),
        Shape::Dword => DwordPlan::new(du, w)?.into(),
    })
}

/// Raw IR for a plan: dword takes `(hi, lo)` and returns `(q, r)`, the
/// word shapes take and return one value.
fn lower(plan: &DivPlan, width: u32) -> Result<Program, String> {
    if let DivPlan::Dword(p) = plan {
        let mut b = Builder::new(width, 2);
        let (hi, lo) = (b.arg(0), b.arg(1));
        let (q, r) = lower_dword_div(&mut b, hi, lo, p);
        return Ok(b.finish([q, r]));
    }
    let mut b = Builder::new(width, 1);
    let n = b.arg(0);
    let q = match plan {
        DivPlan::Unsigned(p) => lower_udiv(&mut b, n, p),
        DivPlan::Signed(p) => lower_sdiv(&mut b, n, p),
        DivPlan::Floor(p) => lower_floor_div(&mut b, n, p),
        DivPlan::Exact(p) => lower_exact_div(&mut b, n, p),
        DivPlan::Urem(p) => lower_urem(&mut b, n, p),
        DivPlan::Divisibility(p) => lower_divisibility(&mut b, n, p),
        other => return Err(format!("no lowering for {other}")),
    };
    Ok(b.finish([q]))
}

struct Compiled {
    prog: Program,
    /// Instructions emitted over all four targets.
    insts: u64,
    cycles_mean: f64,
    /// Scoreboard size and whether the paper's plan won.
    tournament: Option<(u64, bool)>,
}

fn compile<P: Probe>(c: Cell, p: &mut P) -> Result<Compiled, String> {
    let plain = |e: DivisorError| e.to_string();
    let mut plan = lap(p, Layer::PlanBuild, || build_plan(c)).map_err(plain)?;
    let mut tournament = None;
    if let Some(layer) = c.shape.tournament() {
        let du = c.d as u128;
        let t = lap(p, layer, || match c.shape {
            Shape::Unsigned => run_tournament(du, c.width, None),
            _ => run_urem_tournament(du, c.width, None),
        })
        .map_err(plain)?;
        plan = t.winning().candidate.plan;
        tournament = Some((t.scoreboard.len() as u64, t.winner_is_paper()));
    }
    let prog = lap(p, Layer::IrLowerOpt, || {
        lower(&plan, c.width).map(|raw| optimize(&raw))
    })?;
    let insts = lap(p, Layer::CodegenEmit, || {
        Target::ALL
            .iter()
            .map(|&t| emit_assembly(&prog, t, "div").instruction_count() as u64)
            .sum()
    });
    let predictions =
        lap(p, Layer::SimcpuPrice, || predictions_for_plan(&plan)).map_err(|e| e.to_string())?;
    let cycles: u64 = predictions.iter().map(|x| x.cycles).sum();
    Ok(Compiled {
        prog,
        insts,
        cycles_mean: cycles as f64 / predictions.len().max(1) as f64,
        tournament,
    })
}

/// Runs a compiled program on seeded inputs against native division.
fn check_cell(c: Cell, prog: &Program, rng: &mut Rng) -> Result<(), String> {
    let (w, m) = (c.width, mask(c.width));
    let du = c.d as u64;
    for i in 0..CHECK_INPUTS {
        let n = rng.next_u64() & m;
        let multiple = rng.below(m / du + 1) * du;
        let (args, want): (Vec<u64>, Vec<u64>) = match c.shape {
            Shape::Unsigned => (vec![n], vec![n / du]),
            Shape::Urem => (vec![n], vec![n % du]),
            Shape::Exact => (vec![multiple], vec![multiple / du]),
            Shape::Divtest => {
                let n = if i % 2 == 0 { multiple } else { n };
                (vec![n], vec![u64::from(n % du == 0)])
            }
            Shape::Signed | Shape::Floor => {
                let sn = i128::from(sign_extend(n, w));
                let q = if c.shape == Shape::Signed {
                    oracle::trunc(sn, c.d)
                } else {
                    oracle::floor(sn, c.d)
                };
                (vec![n], vec![q as u64 & m])
            }
            Shape::Dword => {
                let hi = rng.below(du);
                let wide = (u128::from(hi) << w) | u128::from(n);
                let d = u128::from(du);
                (vec![hi, n], vec![(wide / d) as u64, (wide % d) as u64])
            }
        };
        let got = prog
            .eval(&args)
            .map_err(|e| format!("{c:?} args {args:?}: {e:?}"))?;
        if got != want {
            return Err(format!(
                "compile_pipeline {:?} w={w} d={}: args {args:?}: got {got:?}, want {want:?}",
                c.shape, c.d
            ));
        }
    }
    Ok(())
}

/// Instructions emitted for one pass over the corpus, all four targets.
pub fn code_insts() -> Result<u64, String> {
    corpus()
        .into_iter()
        .map(|c| compile(c, &mut crate::harness::Off).map(|x| x.insts))
        .sum()
}

#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    cells: u64,
    ir_insts: u64,
    cycles: f64,
    tournaments: u64,
    candidates: u64,
    paper_wins: u64,
}

pub struct CompilePipeline {
    seed: u64,
    cells: Vec<Cell>,
    order: Vec<u32>,
    pos: usize,
    rng: Rng,
    next_op: u64,
    last: Option<(Cell, Compiled)>,
    faults: u64,
    counts: Counts,
    counts0: Counts,
}

fn shuffle(order: &mut [u32], rng: &mut Rng) {
    for i in (1..order.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
}

impl Workload for CompilePipeline {
    const SPANS_PER_OP: u64 = 7;

    fn setup(seed: u64) -> Result<Self, String> {
        let cells = corpus();
        let mut rng = Rng::new(mix(seed, 0xc0de));
        let mut order: Vec<u32> = (0..cells.len() as u32).collect();
        shuffle(&mut order, &mut rng);
        Ok(CompilePipeline {
            seed,
            cells,
            order,
            pos: 0,
            rng,
            next_op: 0,
            last: None,
            faults: 0,
            counts: Counts::default(),
            counts0: Counts::default(),
        })
    }

    fn window<P: Probe>(&mut self, p: &mut P) -> u64 {
        if self.pos == self.order.len() {
            shuffle(&mut self.order, &mut self.rng);
            self.pos = 0;
        }
        let cell = self.cells[self.order[self.pos] as usize];
        self.pos += 1;
        p.op(self.next_op);
        self.next_op += 1;
        p.begin(Layer::Request, 1);
        let res = compile(cell, p);
        p.end();
        self.last = match res {
            Ok(c) => {
                let n = &mut self.counts;
                n.cells += 1;
                n.ir_insts += c.prog.insts().len() as u64;
                n.cycles += c.cycles_mean;
                if let Some((candidates, paper)) = c.tournament {
                    n.tournaments += 1;
                    n.candidates += candidates;
                    n.paper_wins += u64::from(paper);
                }
                Some((cell, c))
            }
            Err(e) => {
                if self.faults == 0 {
                    eprintln!("compile_pipeline: fault on {cell:?}: {e}");
                }
                self.faults += 1;
                None
            }
        };
        1
    }

    fn check<P: Probe>(&mut self, _p: &mut P) -> Result<(), String> {
        match &self.last {
            Some((cell, c)) => {
                let mut rng = Rng::new(mix(self.seed, self.next_op - 1));
                check_cell(*cell, &c.prog, &mut rng)
                    .map_err(|e| format!("op {}: {e}", self.next_op - 1))
            }
            None => Ok(()),
        }
    }

    fn faults(&self) -> u64 {
        self.faults
    }

    fn begin_counters(&mut self) {
        self.counts0 = self.counts;
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let (a, b) = (self.counts, self.counts0);
        let cells = (a.cells - b.cells).max(1) as f64;
        let tournaments = (a.tournaments - b.tournaments).max(1) as f64;
        vec![
            (
                "tournament.candidates_per_cell",
                (a.candidates - b.candidates) as f64 / tournaments,
            ),
            (
                "tournament.paper_win_ratio",
                (a.paper_wins - b.paper_wins) as f64 / tournaments,
            ),
            (
                "ir.insts_per_cell",
                (a.ir_insts - b.ir_insts) as f64 / cells,
            ),
            ("simcpu.cycles_per_cell", (a.cycles - b.cycles) / cells),
        ]
    }

    fn fingerprint(&self) -> u64 {
        let h = self.order.iter().fold(0, |h, &i| mix(h, u64::from(i)));
        mix(h, Rng::new(mix(self.seed, 0)).next_u64())
    }
}
