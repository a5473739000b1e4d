//! `magic calibrate` — closes the loop between simcpu's *predicted*
//! cycles and the host's *measured* nanoseconds.
//!
//! The paper's Table 1.1 cost models justify every strategy choice the
//! planner makes, but a model is only trustworthy where its *ranking*
//! of strategies matches reality. Calibration measures one host-timed
//! cell per `(width, divisor, strategy)` — warmup plus min-of-k
//! repetition, see [`crate::measure_ns_min`] — joins each cell against
//! [`predictions_for_plan`] under every Table 1.1 model, fits a
//! per-model scale factor (ns per simulated cycle), and scores each
//! model by rank correlation. Cells where a model's predicted order
//! contradicts the measured order beyond the noise floor are reported
//! explicitly as **ranking inversions** (e.g. "the model says
//! `mul_shift` beats `hardware`, the host disagrees") — the same
//! measured-vs-modelled methodology Lemire et al. use to validate
//! their division algorithms.
//!
//! The measurement half ([`run_calibration`]) is host-dependent; the
//! scoring half ([`score_models`]) is pure and unit-tested against
//! synthetic measurements.

use magicdiv::plan::DivPlan;
use magicdiv::UnsignedDivisor;
use magicdiv_codegen::gen_unsigned_div_hw;
use magicdiv_simcpu::{cycles_for_program, predictions_for_plan, table_1_1};
use magicdiv_trace::json_string;

use crate::{git_sha, measure_ns_min, unix_time_ms};

/// Inputs per measured batch (matches the `bench` bin's loops).
const LEN: u64 = 1024;

/// Knobs for a calibration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// Timed passes over the input batch per repetition.
    pub iters: u64,
    /// Min-of-k repetitions per cell.
    pub repeats: u32,
    /// Measured gaps smaller than this (percent) are treated as timing
    /// noise and never reported as inversions.
    pub noise_floor_pct: f64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            iters: 300,
            repeats: 5,
            noise_floor_pct: 5.0,
        }
    }
}

/// One measured `(width, divisor, strategy)` cell joined with every
/// model's predicted cycle total.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationCell {
    /// Row name, `u<width>/<strategy>/<divisor>`.
    pub name: String,
    /// Word width in bits.
    pub width: u32,
    /// The divisor measured.
    pub divisor: u64,
    /// Planner strategy label (or `hardware` for the native divide).
    pub strategy: String,
    /// Host-measured nanoseconds per division (min-of-k).
    pub measured_ns: f64,
    /// Predicted cycles per Table 1.1 model, in the paper's row order.
    pub predicted: Vec<(&'static str, u64)>,
}

impl CalibrationCell {
    /// The predicted cycles under `model`, when the cell has them.
    pub fn predicted_for(&self, model: &str) -> Option<u64> {
        self.predicted
            .iter()
            .find(|(m, _)| *m == model)
            .map(|&(_, c)| c)
    }
}

/// A predicted-vs-measured ranking contradiction for one model.
#[derive(Debug, Clone, PartialEq)]
pub struct Inversion {
    /// Cell the model predicts to be strictly faster.
    pub predicted_faster: String,
    /// Cell the host actually measured as faster (beyond the noise floor).
    pub measured_faster: String,
    /// Predicted cycles `(predicted_faster, measured_faster)`.
    pub predicted_cycles: (u64, u64),
    /// Measured ns/op `(predicted_faster, measured_faster)`.
    pub measured_ns: (f64, f64),
}

/// One Table 1.1 model's calibration score.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelScore {
    /// Table 1.1 model name.
    pub model: &'static str,
    /// Least-squares fit of measured ns = scale × predicted cycles.
    pub scale_ns_per_cycle: f64,
    /// Spearman rank correlation between predicted cycles and measured
    /// ns across all cells (1.0 = the model ranks exactly like the host).
    pub rank_correlation: f64,
    /// Mean |scale×predicted − measured| / measured over the cells.
    pub mean_abs_rel_err: f64,
    /// Same-width cell pairs the model orders opposite to the host.
    pub inversions: Vec<Inversion>,
}

/// A complete calibration run: the measured cells and every model's score.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport {
    /// Report schema version.
    pub version: u64,
    /// `HEAD` commit of the measured tree.
    pub git_sha: String,
    /// Wall-clock milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Run duration in milliseconds.
    pub duration_ms: u64,
    /// The configuration measured under.
    pub config: CalibrationConfig,
    /// Every measured cell.
    pub cells: Vec<CalibrationCell>,
    /// Every Table 1.1 model's score, in the paper's row order.
    pub models: Vec<ModelScore>,
}

/// One divisor per unsigned strategy at a width — the values the
/// planning layer classifies as identity / shift / mul_shift /
/// mul_add_shift — shared by calibration and the `bench` bin.
///
/// # Examples
///
/// ```
/// use magicdiv::plan::{DivPlan, UdivPlan};
/// use magicdiv_bench::strategy_divisors;
///
/// let names: Vec<_> = strategy_divisors(32)
///     .iter()
///     .map(|&d| DivPlan::from(UdivPlan::new(d.into(), 32).unwrap()).strategy_name())
///     .collect();
/// assert_eq!(names, ["identity", "shift", "mul_shift", "mul_add_shift"]);
/// ```
pub fn strategy_divisors(width: u32) -> [u64; 4] {
    // d = 7 needs the add-fixup sequence at every supported width.
    [1, 1 << (width / 2), 10, 7]
}

macro_rules! measure_width {
    ($t:ty, $cfg:expr, $cells:expr) => {{
        let width = <$t>::BITS;
        let inputs: Vec<$t> = (0..LEN)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) as $t)
            .collect();
        let hw_prog = gen_unsigned_div_hw(width);
        for d in strategy_divisors(width) {
            let dv = UnsignedDivisor::new(d as $t).expect("nonzero");
            let plan = DivPlan::from(dv.plan());
            let strategy = plan.strategy_name();
            let plan_predicted = predictions_for_plan(&plan).expect("machine widths are priceable");

            let ns = measure_ns_min($cfg.iters, $cfg.repeats, |_| {
                let d = std::hint::black_box(d as $t);
                inputs
                    .iter()
                    .map(|&n| (std::hint::black_box(n) / d) as u64)
                    .fold(0u64, u64::wrapping_add)
            });
            $cells.push(CalibrationCell {
                name: format!("u{width}/hardware/{d}"),
                width,
                divisor: d,
                strategy: "hardware".to_string(),
                measured_ns: ns / LEN as f64,
                predicted: table_1_1()
                    .iter()
                    .map(|m| (m.name, cycles_for_program(&hw_prog, m)))
                    .collect(),
            });

            let ns = measure_ns_min($cfg.iters, $cfg.repeats, |_| {
                inputs
                    .iter()
                    .map(|&n| dv.divide(std::hint::black_box(n)) as u64)
                    .fold(0u64, u64::wrapping_add)
            });
            $cells.push(CalibrationCell {
                name: format!("u{width}/{strategy}/{d}"),
                width,
                divisor: d,
                strategy: strategy.to_string(),
                measured_ns: ns / LEN as f64,
                predicted: plan_predicted.iter().map(|p| (p.model, p.cycles)).collect(),
            });
        }
    }};
}

/// Measures every cell and scores every model. Host-dependent (wall
/// clock); everything downstream of the measurements is [`score_models`].
pub fn run_calibration(cfg: &CalibrationConfig) -> CalibrationReport {
    let started = std::time::Instant::now();
    let mut cells: Vec<CalibrationCell> = Vec::new();
    measure_width!(u8, cfg, cells);
    measure_width!(u16, cfg, cells);
    measure_width!(u32, cfg, cells);
    measure_width!(u64, cfg, cells);
    let models = score_models(&cells, cfg.noise_floor_pct);
    CalibrationReport {
        version: 1,
        git_sha: git_sha(),
        unix_ms: unix_time_ms(),
        duration_ms: started.elapsed().as_millis() as u64,
        config: *cfg,
        cells,
        models,
    }
}

/// Average ranks (ties averaged), 1-based.
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

/// Spearman rank correlation: Pearson over average ranks.
fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    pearson(&ranks(xs), &ranks(ys))
}

/// Scores every Table 1.1 model against the measured cells: scale fit,
/// rank correlation, relative error, and the explicit (possibly empty)
/// list of same-width ranking inversions. Pure — the unit tests drive it
/// with synthetic measurements.
pub fn score_models(cells: &[CalibrationCell], noise_floor_pct: f64) -> Vec<ModelScore> {
    table_1_1()
        .iter()
        .map(|model| {
            // The cells that carry a prediction under this model.
            let joined: Vec<(&CalibrationCell, u64)> = cells
                .iter()
                .filter_map(|c| c.predicted_for(model.name).map(|p| (c, p)))
                .collect();
            let preds: Vec<f64> = joined.iter().map(|&(_, p)| p as f64).collect();
            let meas: Vec<f64> = joined.iter().map(|&(c, _)| c.measured_ns).collect();

            // Least squares through the origin: ns ≈ scale × cycles.
            let (num, den) = joined.iter().fold((0.0, 0.0), |(n, d), &(c, p)| {
                (n + c.measured_ns * p as f64, d + (p * p) as f64)
            });
            let scale = if den > 0.0 { num / den } else { 0.0 };
            let mut rel_err_sum = 0.0;
            let mut rel_err_n = 0u64;
            for &(c, p) in &joined {
                if c.measured_ns > 0.0 {
                    rel_err_sum += (scale * p as f64 - c.measured_ns).abs() / c.measured_ns;
                    rel_err_n += 1;
                }
            }

            // Same-width pairs where the model's strict order contradicts
            // the host's order by more than the noise floor.
            let mut inversions = Vec::new();
            for (ai, &(a, pa)) in joined.iter().enumerate() {
                for &(b, pb) in joined.iter().skip(ai + 1) {
                    if a.width != b.width {
                        continue;
                    }
                    // Orient so `fast` is the one the model predicts faster.
                    let (fast, slow, pf, ps) = if pa < pb {
                        (a, b, pa, pb)
                    } else if pb < pa {
                        (b, a, pb, pa)
                    } else {
                        continue; // model sees a tie: no order to contradict
                    };
                    let gap_pct = if slow.measured_ns > 0.0 {
                        (fast.measured_ns - slow.measured_ns) / slow.measured_ns * 100.0
                    } else {
                        0.0
                    };
                    if gap_pct > noise_floor_pct {
                        inversions.push(Inversion {
                            predicted_faster: fast.name.clone(),
                            measured_faster: slow.name.clone(),
                            predicted_cycles: (pf, ps),
                            measured_ns: (fast.measured_ns, slow.measured_ns),
                        });
                    }
                }
            }

            let rho = spearman(&preds, &meas);
            ModelScore {
                model: model.name,
                scale_ns_per_cycle: scale,
                rank_correlation: if rho.is_finite() { rho } else { 0.0 },
                mean_abs_rel_err: if rel_err_n > 0 {
                    rel_err_sum / rel_err_n as f64
                } else {
                    0.0
                },
                inversions,
            }
        })
        .collect()
}

impl CalibrationReport {
    /// Renders the versioned `results/calibration.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"version\": {},\n", self.version));
        out.push_str(&format!("  \"git_sha\": {},\n", json_string(&self.git_sha)));
        out.push_str(&format!("  \"unix_ms\": {},\n", self.unix_ms));
        out.push_str(&format!("  \"duration_ms\": {},\n", self.duration_ms));
        out.push_str(&format!("  \"iters\": {},\n", self.config.iters));
        out.push_str(&format!("  \"repeats\": {},\n", self.config.repeats));
        out.push_str(&format!(
            "  \"noise_floor_pct\": {:.2},\n",
            self.config.noise_floor_pct
        ));
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let predicted: Vec<String> = c
                .predicted
                .iter()
                .map(|(m, cy)| format!("{}:{cy}", json_string(m)))
                .collect();
            out.push_str(&format!(
                "    {{\"name\": {}, \"width\": {}, \"divisor\": {}, \"strategy\": {}, \
                 \"measured_ns\": {:.4}, \"predicted_cycles\": {{{}}}}}{}\n",
                json_string(&c.name),
                c.width,
                c.divisor,
                json_string(&c.strategy),
                c.measured_ns,
                predicted.join(","),
                if i + 1 < self.cells.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"models\": [\n");
        for (i, s) in self.models.iter().enumerate() {
            let inversions: Vec<String> = s
                .inversions
                .iter()
                .map(|inv| {
                    format!(
                        "{{\"predicted_faster\": {}, \"measured_faster\": {}, \
                         \"predicted_cycles\": [{}, {}], \"measured_ns\": [{:.4}, {:.4}]}}",
                        json_string(&inv.predicted_faster),
                        json_string(&inv.measured_faster),
                        inv.predicted_cycles.0,
                        inv.predicted_cycles.1,
                        inv.measured_ns.0,
                        inv.measured_ns.1,
                    )
                })
                .collect();
            out.push_str(&format!(
                "    {{\"model\": {}, \"scale_ns_per_cycle\": {:.6}, \
                 \"rank_correlation\": {:.4}, \"mean_abs_rel_err\": {:.4}, \
                 \"inversion_count\": {}, \"inversions\": [{}]}}{}\n",
                json_string(s.model),
                s.scale_ns_per_cycle,
                s.rank_correlation,
                s.mean_abs_rel_err,
                s.inversions.len(),
                inversions.join(", "),
                if i + 1 < self.models.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The model scores as a text table, best rank correlation first.
    pub fn render_text(&self) -> String {
        let mut scored: Vec<&ModelScore> = self.models.iter().collect();
        scored.sort_by(|a, b| {
            b.rank_correlation
                .partial_cmp(&a.rank_correlation)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let rows: Vec<Vec<String>> = scored
            .iter()
            .map(|s| {
                vec![
                    s.model.to_string(),
                    format!("{:.4}", s.rank_correlation),
                    format!("{:.4}", s.scale_ns_per_cycle),
                    format!("{:.1}%", s.mean_abs_rel_err * 100.0),
                    s.inversions.len().to_string(),
                ]
            })
            .collect();
        let mut out = crate::render_table(
            &[
                "model",
                "rank corr",
                "ns/cycle",
                "mean |rel err|",
                "inversions",
            ],
            &rows,
        );
        let total: usize = self.models.iter().map(|s| s.inversions.len()).sum();
        out.push_str(&format!(
            "\n{} cells, {} models, {total} ranking inversions beyond the {:.1}% noise floor\n",
            self.cells.len(),
            self.models.len(),
            self.config.noise_floor_pct,
        ));
        for s in &self.models {
            for inv in &s.inversions {
                out.push_str(&format!(
                    "  inversion [{}]: predicts {} ({} cy) beats {} ({} cy); host measured \
                     {:.3} vs {:.3} ns/op\n",
                    s.model,
                    inv.predicted_faster,
                    inv.predicted_cycles.0,
                    inv.measured_faster,
                    inv.predicted_cycles.1,
                    inv.measured_ns.0,
                    inv.measured_ns.1,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic cells: two widths, predictions under a fake pair of
    /// model names taken from Table 1.1 so `score_models` joins them.
    fn synthetic_cells() -> Vec<CalibrationCell> {
        let models = table_1_1();
        let (m0, m1) = (models[0].name, models[1].name);
        // Model m0 prices cells 10/20/30/40; the "host" measures exactly
        // proportionally (1 cycle = 0.5 ns). Model m1 inverts two cells.
        let specs: [(&str, u32, u64, f64, u64, u64); 4] = [
            ("u32/identity/1", 32, 1, 5.0, 10, 40),
            ("u32/shift/65536", 32, 65536, 10.0, 20, 30),
            ("u32/mul_shift/10", 32, 10, 15.0, 30, 20),
            ("u32/hardware/10", 32, 10, 20.0, 40, 10),
        ];
        specs
            .iter()
            .map(|&(name, width, divisor, ns, p0, p1)| CalibrationCell {
                name: name.to_string(),
                width,
                divisor,
                strategy: name.split('/').nth(1).unwrap_or("?").to_string(),
                measured_ns: ns,
                predicted: vec![(m0, p0), (m1, p1)],
            })
            .collect()
    }

    #[test]
    fn proportional_model_scores_perfectly() {
        let cells = synthetic_cells();
        let scores = score_models(&cells, 5.0);
        let m0 = &scores[0];
        assert!((m0.rank_correlation - 1.0).abs() < 1e-9, "{m0:?}");
        assert!(m0.inversions.is_empty(), "{:?}", m0.inversions);
        assert!((m0.scale_ns_per_cycle - 0.5).abs() < 1e-9, "{m0:?}");
        assert!(m0.mean_abs_rel_err < 1e-9, "{m0:?}");
    }

    #[test]
    fn anti_correlated_model_reports_inversions() {
        let cells = synthetic_cells();
        let scores = score_models(&cells, 5.0);
        let m1 = &scores[1];
        assert!((m1.rank_correlation + 1.0).abs() < 1e-9, "{m1:?}");
        // Every same-width pair is inverted: C(4,2) = 6.
        assert_eq!(m1.inversions.len(), 6, "{:?}", m1.inversions);
        let inv = &m1.inversions[0];
        // The model's "faster" cell measured slower on the host.
        assert!(inv.measured_ns.0 > inv.measured_ns.1, "{inv:?}");
        assert!(inv.predicted_cycles.0 < inv.predicted_cycles.1, "{inv:?}");
    }

    #[test]
    fn noise_floor_suppresses_small_gaps() {
        let cells = synthetic_cells();
        // 400% gaps exist; a 1000% floor hides them all.
        let scores = score_models(&cells, 1000.0);
        assert!(scores.iter().all(|s| s.inversions.is_empty()));
    }

    #[test]
    fn every_table_model_is_scored() {
        let scores = score_models(&synthetic_cells(), 5.0);
        assert_eq!(scores.len(), table_1_1().len());
        // Models with no joined cells degrade gracefully.
        let unjoined = &scores[2];
        assert_eq!(unjoined.rank_correlation, 0.0);
        assert!(unjoined.inversions.is_empty());
    }

    #[test]
    fn report_json_parses_and_carries_all_models() {
        let cells = synthetic_cells();
        let models = score_models(&cells, 5.0);
        let report = CalibrationReport {
            version: 1,
            git_sha: "deadbeef".to_string(),
            unix_ms: 1,
            duration_ms: 2,
            config: CalibrationConfig::default(),
            cells,
            models,
        };
        let doc = crate::json::parse(&report.to_json()).expect("well-formed");
        assert_eq!(doc.get("version").and_then(|v| v.as_f64()), Some(1.0));
        let models = doc.get("models").and_then(|m| m.as_arr()).expect("models");
        assert_eq!(models.len(), table_1_1().len());
        for m in models {
            assert!(m.get("rank_correlation").is_some());
            assert!(m.get("inversions").and_then(|i| i.as_arr()).is_some());
        }
        let text = report.render_text();
        assert!(text.contains("rank corr"), "{text}");
        assert!(text.contains("inversion ["), "{text}");
    }

    #[test]
    fn ranks_average_ties() {
        assert_eq!(ranks(&[3.0, 1.0, 2.0]), vec![3.0, 1.0, 2.0]);
        assert_eq!(ranks(&[1.0, 1.0, 2.0]), vec![1.5, 1.5, 3.0]);
    }

    #[test]
    fn spearman_is_rank_based() {
        // Monotone but nonlinear: perfect rank correlation.
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [1.0, 10.0, 100.0, 1000.0];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-9);
        let rev = [1000.0, 100.0, 10.0, 1.0];
        assert!((spearman(&xs, &rev) + 1.0).abs() < 1e-9);
    }
}
