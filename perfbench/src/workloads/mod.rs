//! The benchmark's workloads, one module each, and the transport probe
//! (`dist`) that `serve_mix`'s traced run makes.

pub mod dist;
pub mod optimize;
pub mod scan;
pub mod serve;

use crate::outcome::{Args, Outcome};
use crate::pace::Pacer;
use crate::trace::Tracer;

/// A workload's entry point: it ticks the pacer between its requests.
pub type Run = fn(&Args, &Tracer, &mut Pacer) -> Outcome;

/// Every workload: its name and its entry point.
pub const ALL: [(&str, Run); 3] = [
    ("optimize_labs", optimize::run),
    ("scan_maxcut", scan::run),
    ("serve_mix", serve::run),
];
