//! no-hot-alloc: passes — the hot function works in borrowed/arena
//! scratch, one annotated cold-branch clone, and an unmarked helper that
//! may allocate freely.

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
