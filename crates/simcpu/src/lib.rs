//! # magicdiv-simcpu — cycle-cost models of the paper's 1985–1993 CPUs
//!
//! The paper's evaluation ran on processors we cannot run on today
//! (MC68020 through Alpha 21064). Per the reproduction's substitution
//! policy (DESIGN.md §3), this crate prices instruction sequences against
//! **the paper's own published latencies**:
//!
//! * [`table_1_1`] — every row of Table 1.1 as a [`TimingModel`]
//!   (mul-high, divide, simple-op cycles; pipelining and software-divide
//!   footnotes; Table 11.2 clock rates);
//! * [`cycles_for_program`] — a single-issue in-order executor for
//!   [`magicdiv_ir`] programs with pipelined-multiplier overlap and
//!   HI/LO divide fusion;
//! * [`radix_conversion_timing`] — the Table 11.2 experiment: the
//!   Figure 11.1 kernel with and without division elimination.
//!
//! # Examples
//!
//! ```
//! use magicdiv_simcpu::{find_model, radix_conversion_timing};
//!
//! // The famous Alpha row: no divide instruction, so eliminating the
//! // (software) division wins by an order of magnitude.
//! let alpha = find_model("alpha").unwrap();
//! let t = radix_conversion_timing(&alpha);
//! assert!(t.speedup() > 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod kernel;
mod models;

pub use crate::exec::{
    cycles_for_loop, cycles_for_lowered_plan, cycles_for_program, predictions_for_plan,
    trace_program, try_cycles_for_plan, InstrTiming, PlanPrediction,
};
pub use crate::kernel::{
    bodies_for, radix_conversion_timing, RadixTiming, FULL_32BIT_DIGITS, LOOP_OVERHEAD_OPS,
};
pub use crate::models::{
    find_model, table_11_2_models, table_11_2_paper_numbers, table_1_1, DivSupport, TimingModel,
};
