//! no-hot-alloc: fails — a hot function that allocates per request.

// kdprof: hot
pub fn serve(batch: &[f32]) -> Vec<f32> {
    let mut out = Vec::new();
    for v in batch {
        out.push(v * 2.0);
    }
    let scratch = vec![0.0f32; batch.len()];
    drop(scratch);
    let echo = batch.to_vec();
    drop(echo);
    out.clone()
}
