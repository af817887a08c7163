//! no-hot-alloc: passes — the hot function works in borrowed/arena
//! scratch, one annotated cold-branch clone, a hot function whose only
//! allocations are its annotated returned rows, and an unmarked helper
//! that may allocate freely.

/// Scores one batch into caller-provided scratch. No allocation on the
/// steady-state path; the error completion clones only when the batch is
/// malformed, which the admission contract rules out after warmup.
// kdprof: hot
pub fn serve_into(batch: &[f32], scratch: &mut [f32], err: &String) -> Result<(), String> {
    if batch.len() != scratch.len() {
        // kdlint: allow(hot-alloc): malformed-batch error path — admission
        // checks lengths, so steady state never reaches this branch.
        return Err(err.clone());
    }
    for (out, v) in scratch.iter_mut().zip(batch) {
        *out = v * 2.0;
    }
    Ok(())
}

/// Not marked hot: setup-time code may allocate.
pub fn warmup(n: usize) -> Vec<f32> {
    let mut scratch = Vec::with_capacity(n);
    scratch.resize(n, 0.0);
    scratch.extend(vec![0.0f32; n]);
    scratch
}

/// Returns one owned row per input: the returned rows are the function's
/// only allocations, and each site says so.
// kdprof: hot
pub fn rows_out(batch: &[f32], width: usize) -> Vec<Vec<f32>> {
    // kdlint: allow(hot-alloc): the returned rows.
    let mut out = Vec::with_capacity(batch.len() / width);
    for row in batch.chunks_exact(width) {
        // kdlint: allow(hot-alloc): a returned row.
        out.push(row.to_vec());
    }
    out
}
