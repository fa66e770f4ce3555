//! Shared helper for the facade-level differential suites: replay a
//! bound executor's plan on the reference interpreter.

use spttn::exec::reference::interpret_tiles;
use spttn::tensor::DenseTensor;
use spttn::{ContractionOutput, ExecStats, Executor};

/// Run `exec`'s plan and current operands through
/// [`spttn::exec::reference::interpret`], over the same root tiles the
/// executor runs (one tile when it is serial), with partials combined
/// exactly as the parallel executor combines them. A scalar tape
/// reproduces the result bit for bit, and any tape dispatches the same
/// number of microkernels.
pub fn reference(exec: &Executor) -> (ContractionOutput, ExecStats) {
    let plan = exec.plan();
    let kernel = plan.kernel();
    let tiles = exec
        .parallel()
        .map_or_else(|| exec.csf().partition(1), |p| p.tiles().to_vec());
    let factors: Vec<&DenseTensor> = kernel
        .inputs
        .iter()
        .enumerate()
        .filter(|&(slot, _)| slot != kernel.sparse_input)
        .map(|(_, r)| exec.factor(&r.name).expect("every factor is bound"))
        .collect();
    interpret_tiles(
        kernel,
        plan.path(),
        plan.forest(),
        plan.buffers(),
        exec.csf(),
        &tiles,
        &factors,
    )
    .expect("reference interpreter runs")
}
