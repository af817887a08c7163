//! Layer graphs: sequential chains, residual blocks and channel
//! concatenation over [`Layer`]s.
//!
//! A network is declared as a tree of these combinators over leaf layers;
//! forward, inference, backward, and parameter and buffer enumeration are
//! written once here instead of once per model. Parameter and buffer order
//! is declaration order — depth first, a residual's main path before its
//! shortcut, concat branches left to right — which is the positional order
//! persistence relies on.
//!
//! # Workspace
//!
//! The combinators run on the workspace protocol (see [`Layer`]): a graph
//! sizes one buffer for an input shape and carves it per layer into
//! output, tape and gradient slots, so a training step or an inference
//! call allocates nothing once the buffer has grown. Training keeps one
//! output slot per layer (what backward reads back) and alternates input
//! gradients between two slots per chain; inference alternates
//! activations between (at most) two slots per chain. An
//! elementwise layer ([`Layer::in_place`], the ReLU) overwrites its
//! predecessor's output unless that layer's backward reads it.
//!
//! [`Seq`] is also the crate's one tensor front: its inherent
//! [`Seq::forward`], [`Seq::backward`] and [`Seq::infer`] drive the same
//! path on tensors, keeping the root tape (input, output, workspace)
//! between a training forward and its backward.

use crate::param::{Layer, Param};
use crate::tensor::Tensor;
use crate::workspace::{carve, Cursor, Dims, Workspace};
use rand::rngs::StdRng;
use std::fmt::Debug;
use std::ops::Range;

/// A layer a graph can own: thread-safe (a trained graph serves from many
/// threads through [`Layer::infer_ws`]) and cloneable behind a box (a graph
/// is `Clone`, so a caller can snapshot a model mid-run). Every `Clone`
/// layer is a node.
pub trait Node: Layer + Debug + Send + Sync + 'static {
    /// Boxed deep copy.
    fn clone_node(&self) -> Box<dyn Node>;
}

impl<T: Layer + Clone + Debug + Send + Sync + 'static> Node for T {
    fn clone_node(&self) -> Box<dyn Node> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Node> {
    fn clone(&self) -> Self {
        self.clone_node()
    }
}

/// What [`Seq`]'s tensor methods keep between `forward(train)` and
/// `backward`: the workspace protocol's tape. A copy starts empty.
#[derive(Debug, Default)]
struct Tape {
    x: Vec<f32>,
    y: Vec<f32>,
    xd: Option<Dims>,
    ws: Workspace,
}

impl Clone for Tape {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Where one activation of a chain lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Buf {
    /// The caller's input.
    Input,
    /// The caller's output slot.
    Output,
    /// The workspace slot at this offset.
    Slot(usize),
}

impl Buf {
    fn range(self, len: usize) -> Range<usize> {
        match self {
            Buf::Slot(at) => at..at + len,
            _ => 0..0,
        }
    }
}

/// One layer's place in a chain's training workspace.
#[derive(Debug, Clone, Copy)]
struct Step {
    din: Dims,
    dout: Dims,
    input: Buf,
    /// Equals `input` when the layer runs in place.
    output: Buf,
    /// ∂loss/∂input slot in the backward scratch; the first layer
    /// writes the caller's.
    grad_in: Span,
    /// The layer's tape.
    ws: Span,
}

/// A workspace range that is `Copy`.
#[derive(Debug, Clone, Copy)]
struct Span(usize, usize);

impl Span {
    fn range(self) -> Range<usize> {
        self.0..self.1
    }
}

impl From<Range<usize>> for Span {
    fn from(r: Range<usize>) -> Self {
        Self(r.start, r.end)
    }
}

/// Layers applied in order; an empty chain is the identity.
#[derive(Debug, Clone, Default)]
pub struct Seq {
    layers: Vec<Box<dyn Node>>,
    /// The training layout of the last `forward_ws`, read by `backward_ws`.
    steps: Vec<Step>,
    tape: Tape,
}

impl Seq {
    /// Empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `layer` to the chain.
    pub fn then(mut self, layer: impl Node) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// The two-layer perceptron `in → hidden (ReLU) → out` on `(N, in)`
    /// rows, drawing the first linear layer's weights before the second's.
    pub fn mlp(input: usize, hidden: usize, output: usize, rng: &mut StdRng) -> Self {
        Self::new()
            .then(super::Linear::new(input, hidden, rng))
            .then(super::Relu::new())
            .then(super::Linear::new(hidden, output, rng))
    }

    /// Whether layer `i` overwrites its predecessor's output: it is
    /// elementwise, has a predecessor in this chain, and (in training)
    /// that predecessor's backward does not read the output.
    fn runs_in_place(&self, i: usize, train: bool) -> bool {
        i > 0 && self.layers[i].in_place() && !(train && self.layers[i - 1].reads_output())
    }

    /// The first layer from which every later one runs in place: it writes
    /// the caller's output slot.
    fn last_writer(&self, train: bool) -> usize {
        (0..self.layers.len())
            .rev()
            .find(|&i| !self.runs_in_place(i, train))
            .unwrap_or(0)
    }

    /// The backward scratch for input `xd`: `(gradient slot length, slot
    /// count, the layers' shared scratch)`. Input gradients alternate
    /// between the slots — layer `i ≥ 1` writes slot `(i − 1) % 2` while
    /// reading its output gradient from the other — and the scratch
    /// follows them.
    fn grad_layout(&self, xd: Dims) -> (usize, usize, usize) {
        let (mut slot, mut child, mut d) = (0, 0, xd);
        for (i, layer) in self.layers.iter().enumerate() {
            if i > 0 {
                slot = slot.max(d.numel());
            }
            child = child.max(layer.grad_len(d));
            d = layer.out_dims(d);
        }
        let slots = self.layers.len().saturating_sub(1).min(2);
        (slot, slots, child)
    }

    /// Walks the training layout for input `xd`, handing each step to
    /// `visit`; returns the tape length.
    fn train_layout(&self, xd: Dims, mut visit: impl FnMut(Step)) -> usize {
        let last = self.last_writer(true);
        let (slot, _, _) = self.grad_layout(xd);
        let mut at = Cursor::default();
        let (mut din, mut input) = (xd, Buf::Input);
        for (i, layer) in self.layers.iter().enumerate() {
            let dout = layer.out_dims(din);
            let output = if self.runs_in_place(i, true) {
                input
            } else if i >= last {
                Buf::Output
            } else {
                Buf::Slot(at.take(dout.numel()).start)
            };
            let grad_in = if i == 0 {
                0..0
            } else {
                let g = (i - 1) % 2 * slot;
                g..g + din.numel()
            };
            let ws = at.take(layer.ws_len(din, true));
            visit(Step {
                din,
                dout,
                input,
                output,
                grad_in: grad_in.into(),
                ws: ws.into(),
            });
            (din, input) = (dout, output);
        }
        at.end()
    }

    /// The inference layout for input `xd`: `(activation slot length,
    /// slot count, layer workspace length)`; the workspace is the
    /// activation slots (two, or one when a single intermediate output
    /// needs one), then the layers' shared scratch.
    fn infer_layout(&self, xd: Dims) -> (usize, usize, usize) {
        let last = self.last_writer(false);
        let (mut act, mut slots, mut scratch, mut din) = (0, 0, 0, xd);
        for (i, layer) in self.layers.iter().enumerate() {
            scratch = scratch.max(layer.ws_len(din, false));
            din = layer.out_dims(din);
            if i < last && !self.runs_in_place(i, false) {
                act = act.max(din.numel());
                slots = (slots + 1).min(2);
            }
        }
        (act, slots, scratch)
    }
}

/// The tensor front: the workspace protocol on tensors, for callers that
/// do not manage a workspace themselves.
impl Seq {
    /// Forward pass. With `train`, keeps the tape [`Seq::backward`]
    /// consumes and updates running statistics; without, computes
    /// [`Seq::infer`]'s bits on the graph's own workspace.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let xd = Dims::new(x.shape());
        let mut y = Tensor::zeros(self.out_dims(xd).as_slice());
        let mut tape = std::mem::take(&mut self.tape);
        if train {
            tape.x.clear();
            tape.x.extend_from_slice(x.data());
            let ws = tape.ws.get(self.ws_len(xd, true));
            self.forward_ws(&tape.x, xd, y.data_mut(), ws);
            tape.y.clear();
            tape.y.extend_from_slice(y.data());
            tape.xd = Some(xd);
        } else {
            let ws = tape.ws.get(self.ws_len(xd, false));
            self.infer_ws(x.data(), xd, y.data_mut(), ws);
        }
        self.tape = tape;
        y
    }

    /// Inference: `forward(x, false)`'s output from `&self`, on a
    /// workspace sized for the call, so many threads can share one graph.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let xd = Dims::new(x.shape());
        let mut y = Tensor::zeros(self.out_dims(xd).as_slice());
        let mut ws = Workspace::new();
        self.infer_ws(x.data(), xd, y.data_mut(), ws.get(self.ws_len(xd, false)));
        y
    }

    /// Backward of the last `forward(x, true)`: accumulates parameter
    /// gradients and returns ∂loss/∂x.
    ///
    /// # Panics
    /// Panics without a training forward since the last backward.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut tape = std::mem::take(&mut self.tape);
        let xd = tape.xd.take().expect("backward without forward(train)");
        let mut gx = Tensor::zeros(xd.as_slice());
        let len = self.ws_len(xd, true);
        let ws = tape.ws.get(len + self.grad_len(xd)).split_at_mut(len);
        self.backward_ws(&tape.x, xd, &tape.y, grad_out.data(), gx.data_mut(), ws);
        self.tape = tape;
        gx
    }
}

impl Layer for Seq {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.layers {
            l.for_each_param_mut(f);
        }
    }

    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.buffers_mut())
            .collect()
    }

    fn buffers(&self) -> Vec<&Vec<f32>> {
        self.layers.iter().flat_map(|l| l.buffers()).collect()
    }

    fn out_dims(&self, x: Dims) -> Dims {
        self.layers.iter().fold(x, |d, l| l.out_dims(d))
    }

    fn ws_len(&self, x: Dims, train: bool) -> usize {
        if train {
            self.train_layout(x, |_| {})
        } else {
            let (act, slots, scratch) = self.infer_layout(x);
            slots * act + scratch
        }
    }

    fn grad_len(&self, x: Dims) -> usize {
        let (slot, slots, child) = self.grad_layout(x);
        slots * slot + child
    }

    // kdprof: hot
    fn forward_ws(&mut self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32]) {
        if self.layers.is_empty() {
            y.copy_from_slice(x);
            return;
        }
        let mut steps = std::mem::take(&mut self.steps);
        steps.clear();
        self.train_layout(xd, |s| steps.push(s));
        for (layer, st) in self.layers.iter_mut().zip(&steps) {
            if st.input == st.output {
                let buf = match st.output {
                    Buf::Output => &mut *y,
                    b => &mut ws[b.range(st.dout.numel())],
                };
                layer.forward_in_place(buf);
                continue;
            }
            let [xs, ys, w] = carve(
                ws,
                [
                    st.input.range(st.din.numel()),
                    st.output.range(st.dout.numel()),
                    st.ws.range(),
                ],
            );
            let xv: &[f32] = if st.input == Buf::Input { x } else { xs };
            let yv = if st.output == Buf::Output {
                &mut *y
            } else {
                ys
            };
            layer.forward_ws(xv, st.din, yv, w);
        }
        self.steps = steps;
    }

    // kdprof: hot
    fn backward_ws(
        &mut self,
        x: &[f32],
        xd: Dims,
        y: &[f32],
        gy: &[f32],
        gx: &mut [f32],
        (tape, scratch): (&mut [f32], &mut [f32]),
    ) {
        let n = self.layers.len();
        if n == 0 {
            gx.copy_from_slice(gy);
            return;
        }
        let (slot, slots, child) = self.grad_layout(xd);
        let (grads, child) = scratch[..slots * slot + child].split_at_mut(slots * slot);
        for i in (0..n).rev() {
            let st = self.steps[i];
            let same = st.input == st.output;
            let [xs, ys, w] = carve(
                tape,
                [
                    st.input.range(st.din.numel()),
                    if same {
                        0..0
                    } else {
                        st.output.range(st.dout.numel())
                    },
                    st.ws.range(),
                ],
            );
            let next_grad = match self.steps.get(i + 1) {
                Some(next) => next.grad_in.range(),
                None => 0..0,
            };
            let [gys, gxs] = carve(grads, [next_grad, st.grad_in.range()]);
            let xv: &[f32] = match st.input {
                Buf::Input => x,
                Buf::Output => y,
                Buf::Slot(_) => xs,
            };
            let yv: &[f32] = if same {
                xv
            } else {
                match st.output {
                    Buf::Output => y,
                    _ => ys,
                }
            };
            let gyv: &[f32] = if i + 1 == n { gy } else { gys };
            let gxv = if i == 0 { &mut *gx } else { gxs };
            self.layers[i].backward_ws(xv, st.din, yv, gyv, gxv, (w, &mut *child));
        }
    }

    // kdprof: hot
    fn infer_ws(&self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32]) {
        if self.layers.is_empty() {
            y.copy_from_slice(x);
            return;
        }
        let last = self.last_writer(false);
        let (act, slots, scratch) = self.infer_layout(xd);
        let (slots, w) = ws[..slots * act + scratch].split_at_mut(slots * act);
        let (p, q) = slots.split_at_mut(act.min(slots.len()));
        // Where the current activation lives: the input, the output slot,
        // or slot 0/1.
        let mut cur = Buf::Input;
        let mut din = xd;
        for (i, layer) in self.layers.iter().enumerate() {
            let dout = layer.out_dims(din);
            let len = dout.numel();
            if self.runs_in_place(i, false) {
                match cur {
                    Buf::Output => layer.infer_in_place(y),
                    Buf::Slot(0) => layer.infer_in_place(&mut p[..len]),
                    _ => layer.infer_in_place(&mut q[..len]),
                }
            } else {
                let w = &mut w[..layer.ws_len(din, false)];
                let next = if i >= last {
                    Buf::Output
                } else if cur == Buf::Slot(0) {
                    Buf::Slot(1)
                } else {
                    Buf::Slot(0)
                };
                let n_in = din.numel();
                match (cur, next) {
                    (Buf::Input, Buf::Output) => layer.infer_ws(x, din, y, w),
                    (Buf::Input, Buf::Slot(0)) => layer.infer_ws(x, din, &mut p[..len], w),
                    (Buf::Slot(0), Buf::Output) => layer.infer_ws(&p[..n_in], din, y, w),
                    (Buf::Slot(0), _) => layer.infer_ws(&p[..n_in], din, &mut q[..len], w),
                    (_, Buf::Output) => layer.infer_ws(&q[..n_in], din, y, w),
                    _ => layer.infer_ws(&q[..n_in], din, &mut p[..len], w),
                }
                cur = next;
            }
            din = dout;
        }
    }

    fn reads_output(&self) -> bool {
        self.layers.last().is_some_and(|l| l.reads_output())
    }
}

/// `dst[i] = a[i] + b[i]`.
fn add_into(dst: &mut [f32], a: &[f32], b: &[f32]) {
    for (d, (&u, &v)) in dst.iter_mut().zip(a.iter().zip(b)) {
        *d = u + v;
    }
}

/// `dst[i] += src[i]`.
pub(super) fn add_assign(dst: &mut [f32], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `main(x) + shortcut(x)`, where a missing shortcut is the identity. The
/// input gradient is `main′ + shortcut′` in that order.
#[derive(Debug, Clone)]
pub struct Residual {
    main: Seq,
    shortcut: Option<Seq>,
}

/// A residual block's training tape: the main path's tape, the main
/// path's own output when its backward reads it, then the shortcut's tape
/// and output.
struct ResidualLayout {
    len: usize,
    main: Range<usize>,
    main_out: Range<usize>,
    short: Range<usize>,
    short_out: Range<usize>,
}

impl Residual {
    /// Residual block over `main`, with a projected `shortcut` or (`None`)
    /// the identity.
    pub fn new(main: Seq, shortcut: Option<Seq>) -> Self {
        Self { main, shortcut }
    }

    fn train_layout(&self, xd: Dims) -> ResidualLayout {
        let mut at = Cursor::default();
        let dout = self.out_dims(xd);
        let main = at.take(self.main.ws_len(xd, true));
        let main_out = at.take(if self.main.reads_output() {
            dout.numel()
        } else {
            0
        });
        let (short, short_out) = match &self.shortcut {
            Some(s) => (at.take(s.ws_len(xd, true)), at.take(dout.numel())),
            None => (0..0, 0..0),
        };
        ResidualLayout {
            len: at.end(),
            main,
            main_out,
            short,
            short_out,
        }
    }

    /// The backward scratch: the shortcut's input gradient, then the
    /// paths' shared scratch.
    fn grad_layout(&self, xd: Dims) -> (usize, usize) {
        let child = self.main.grad_len(xd);
        match &self.shortcut {
            Some(s) => (xd.numel(), child.max(s.grad_len(xd))),
            None => (0, child),
        }
    }
}

impl Layer for Residual {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.main.params_mut();
        p.extend(self.shortcut.iter_mut().flat_map(|s| s.params_mut()));
        p
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = self.main.params();
        p.extend(self.shortcut.iter().flat_map(|s| s.params()));
        p
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.main.for_each_param_mut(f);
        if let Some(s) = &mut self.shortcut {
            s.for_each_param_mut(f);
        }
    }

    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        let mut b = self.main.buffers_mut();
        b.extend(self.shortcut.iter_mut().flat_map(|s| s.buffers_mut()));
        b
    }

    fn buffers(&self) -> Vec<&Vec<f32>> {
        let mut b = self.main.buffers();
        b.extend(self.shortcut.iter().flat_map(|s| s.buffers()));
        b
    }

    fn out_dims(&self, x: Dims) -> Dims {
        self.main.out_dims(x)
    }

    fn ws_len(&self, x: Dims, train: bool) -> usize {
        if train {
            return self.train_layout(x).len;
        }
        match &self.shortcut {
            Some(s) => {
                self.out_dims(x).numel() + self.main.ws_len(x, false).max(s.ws_len(x, false))
            }
            None => self.main.ws_len(x, false),
        }
    }

    fn grad_len(&self, x: Dims) -> usize {
        let (short_grad, child) = self.grad_layout(x);
        short_grad + child
    }

    // kdprof: hot
    fn forward_ws(&mut self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32]) {
        let lay = self.train_layout(xd);
        let [wm, m, wsh, s_out] = carve(ws, [lay.main, lay.main_out, lay.short, lay.short_out]);
        let keep_main = !m.is_empty();
        if keep_main {
            self.main.forward_ws(x, xd, m, wm);
        } else {
            self.main.forward_ws(x, xd, y, wm);
        }
        let other: &[f32] = match &mut self.shortcut {
            Some(s) => {
                s.forward_ws(x, xd, s_out, wsh);
                s_out
            }
            None => x,
        };
        if keep_main {
            add_into(y, m, other);
        } else {
            add_assign(y, other);
        }
    }

    // kdprof: hot
    fn backward_ws(
        &mut self,
        x: &[f32],
        xd: Dims,
        y: &[f32],
        gy: &[f32],
        gx: &mut [f32],
        (tape, scratch): (&mut [f32], &mut [f32]),
    ) {
        let lay = self.train_layout(xd);
        let [wm, m, wsh, s_out] = carve(tape, [lay.main, lay.main_out, lay.short, lay.short_out]);
        let (short_grad, child) = self.grad_layout(xd);
        let (gs, child) = scratch[..short_grad + child].split_at_mut(short_grad);
        let main_y: &[f32] = if m.is_empty() { y } else { m };
        self.main
            .backward_ws(x, xd, main_y, gy, gx, (wm, &mut *child));
        match &mut self.shortcut {
            Some(s) => {
                s.backward_ws(x, xd, s_out, gy, gs, (wsh, child));
                add_assign(gx, gs);
            }
            None => add_assign(gx, gy),
        }
    }

    // kdprof: hot
    fn infer_ws(&self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32]) {
        match &self.shortcut {
            Some(s) => {
                let (s_out, w) = ws.split_at_mut(self.out_dims(xd).numel());
                self.main.infer_ws(x, xd, y, w);
                s.infer_ws(x, xd, s_out, w);
                add_assign(y, s_out);
            }
            None => {
                self.main.infer_ws(x, xd, y, ws);
                add_assign(y, x);
            }
        }
    }
}

/// Branches applied to the same `(N, C, L)` input, outputs concatenated
/// along the channel axis. The input gradient sums the branch gradients
/// left to right.
#[derive(Debug, Clone)]
pub struct Concat {
    branches: Vec<Seq>,
}

impl Concat {
    /// Concatenation of `branches`, left to right.
    ///
    /// # Panics
    /// Panics if `branches` is empty.
    pub fn new(branches: Vec<Seq>) -> Self {
        assert!(!branches.is_empty(), "Concat needs at least one branch");
        Self { branches }
    }

    /// Branch `j`'s output slot and workspace. Training lays out output
    /// and tape branch after branch; inference the branches' outputs,
    /// then one scratch all of them share.
    fn slots(&self, xd: Dims, train: bool, j: usize) -> (Range<usize>, Range<usize>) {
        let mut at = Cursor::default();
        let mut mine = (0..0, 0..0);
        for (i, b) in self.branches.iter().enumerate() {
            let out = at.take(b.out_dims(xd).numel());
            let tape = at.take(if train { b.ws_len(xd, true) } else { 0 });
            if i == j {
                mine = (out, tape);
            }
        }
        if !train {
            let scratch = self.branches.iter().map(|b| b.ws_len(xd, false)).max();
            mine.1 = at.take(scratch.unwrap_or(0));
        }
        mine
    }

    /// Total workspace length.
    fn ws_end(&self, xd: Dims, train: bool) -> usize {
        self.slots(xd, train, self.branches.len() - 1).1.end
    }

    /// The backward scratch: branch `j`'s output-gradient slot (branch
    /// after branch), then the input gradient of the branches after the
    /// first, then the branches' shared scratch. Returns branch `j`'s slot
    /// and the two regions after the slots.
    fn grad_slots(&self, xd: Dims, j: usize) -> (Range<usize>, Range<usize>, Range<usize>) {
        let mut at = Cursor::default();
        let mut mine = 0..0;
        for (i, b) in self.branches.iter().enumerate() {
            let slot = at.take(b.out_dims(xd).numel());
            if i == j {
                mine = slot;
            }
        }
        let sum = at.take(xd.numel());
        let child = self.branches.iter().map(|b| b.grad_len(xd)).max();
        (mine, sum, at.take(child.unwrap_or(0)))
    }

    /// Walks the branches' channel ranges of a concatenated `(N, C, L)`
    /// tensor: `f(j, c_j, offset)` per branch, left to right.
    fn channel_ranges(&self, xd: Dims, mut f: impl FnMut(usize, usize, usize)) {
        let mut offset = 0;
        for (j, b) in self.branches.iter().enumerate() {
            let c = b.out_dims(xd).dim(1);
            f(j, c, offset);
            offset += c;
        }
    }

    /// Copies each branch's `(N, C_j, L)` output slot into its channel
    /// range of `y`.
    fn concat_into(&self, xd: Dims, train: bool, y: &mut [f32], ws: &[f32]) {
        let (n, l) = (xd.dim(0), xd.dim(2));
        let c_total = y.len() / (n * l);
        self.channel_ranges(xd, |j, c, offset| {
            let part = &ws[self.slots(xd, train, j).0];
            for ni in 0..n {
                let at = (ni * c_total + offset) * l;
                y[at..at + c * l].copy_from_slice(&part[ni * c * l..(ni + 1) * c * l]);
            }
        });
    }
}

impl Layer for Concat {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.branches
            .iter_mut()
            .flat_map(|b| b.params_mut())
            .collect()
    }

    fn params(&self) -> Vec<&Param> {
        self.branches.iter().flat_map(|b| b.params()).collect()
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for b in &mut self.branches {
            b.for_each_param_mut(f);
        }
    }

    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        self.branches
            .iter_mut()
            .flat_map(|b| b.buffers_mut())
            .collect()
    }

    fn buffers(&self) -> Vec<&Vec<f32>> {
        self.branches.iter().flat_map(|b| b.buffers()).collect()
    }

    fn out_dims(&self, x: Dims) -> Dims {
        let c = self.branches.iter().map(|b| b.out_dims(x).dim(1)).sum();
        Dims::new(&[x.dim(0), c, x.dim(2)])
    }

    fn ws_len(&self, x: Dims, train: bool) -> usize {
        self.ws_end(x, train)
    }

    fn grad_len(&self, x: Dims) -> usize {
        self.grad_slots(x, 0).2.end
    }

    // kdprof: hot
    fn forward_ws(&mut self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32]) {
        for j in 0..self.branches.len() {
            let (out, w) = self.slots(xd, true, j);
            let [o, w] = carve(ws, [out, w]);
            self.branches[j].forward_ws(x, xd, o, w);
        }
        self.concat_into(xd, true, y, ws);
    }

    // kdprof: hot
    fn backward_ws(
        &mut self,
        x: &[f32],
        xd: Dims,
        _y: &[f32],
        gy: &[f32],
        gx: &mut [f32],
        (tape, scratch): (&mut [f32], &mut [f32]),
    ) {
        // Split the gradient into the branches' output-gradient slots.
        let (n, l) = (xd.dim(0), xd.dim(2));
        let c_total = gy.len() / (n * l);
        self.channel_ranges(xd, |j, c, offset| {
            let part = &mut scratch[self.grad_slots(xd, j).0];
            for ni in 0..n {
                let at = (ni * c_total + offset) * l;
                part[ni * c * l..(ni + 1) * c * l].copy_from_slice(&gy[at..at + c * l]);
            }
        });
        for j in 0..self.branches.len() {
            let (out, w) = self.slots(xd, true, j);
            let [o, w] = carve(tape, [out, w]);
            let (grad, sum, child) = self.grad_slots(xd, j);
            let [g, s, child] = carve(scratch, [grad, sum, child]);
            if j == 0 {
                self.branches[j].backward_ws(x, xd, o, g, gx, (w, child));
            } else {
                self.branches[j].backward_ws(x, xd, o, g, s, (w, child));
                add_assign(gx, s);
            }
        }
    }

    // kdprof: hot
    fn infer_ws(&self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32]) {
        for (j, b) in self.branches.iter().enumerate() {
            let (out, w) = self.slots(xd, false, j);
            let w = w.start..w.start + b.ws_len(xd, false);
            let [o, w] = carve(ws, [out, w]);
            b.infer_ws(x, xd, o, w);
        }
        self.concat_into(xd, false, y, ws);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::layers::{BatchNorm1d, Conv1d, Gelu, Linear, Relu, SameMaxPool1d};
    use rand::SeedableRng;

    fn ramp(shape: &[usize]) -> Tensor {
        let numel: usize = shape.iter().product();
        Tensor::from_vec(
            shape,
            (0..numel)
                .map(|i| ((i * 13 % 17) as f32 - 8.0) * 0.1)
                .collect(),
        )
    }

    #[test]
    fn concat_stacks_channels_and_sums_gradients() {
        // Two identity branches: the output repeats the channels, and the
        // input gradient is the sum of the two halves.
        let mut c = Seq::new().then(Concat::new(vec![Seq::new(), Seq::new()]));
        let x = Tensor::from_vec(&[2, 1, 3], (0..6).map(|i| i as f32).collect());
        let y = c.forward(&x, true);
        assert_eq!(y.shape(), &[2, 2, 3]);
        assert_eq!(y.data(), &[0., 1., 2., 0., 1., 2., 3., 4., 5., 3., 4., 5.]);
        let g = Tensor::from_vec(&[2, 2, 3], (0..12).map(|i| i as f32).collect());
        let gx = c.backward(&g);
        assert_eq!(gx.data(), &[3., 5., 7., 15., 17., 19.]);
    }

    #[test]
    fn empty_seq_is_identity() {
        let mut s = Seq::new();
        let x = ramp(&[2, 3]);
        assert_eq!(s.forward(&x, true), x);
        assert_eq!(s.backward(&x), x);
        assert!(s.params().is_empty());
    }

    #[test]
    fn seq_gradients() {
        let mut rng = StdRng::seed_from_u64(1);
        // GELU rather than ReLU: finite differences across a kink mislead.
        let mut s = Seq::new()
            .then(Linear::new(4, 6, &mut rng))
            .then(Gelu::new())
            .then(Linear::new(6, 3, &mut rng));
        let x = ramp(&[3, 4]);
        check_layer_gradients(&mut s, &x, 1e-2, 2e-2);
    }

    #[test]
    fn projected_residual_gradients() {
        let mut rng = StdRng::seed_from_u64(2);
        let main = Seq::new()
            .then(Conv1d::new(2, 3, 3, &mut rng))
            .then(Gelu::new())
            .then(Conv1d::new(3, 3, 3, &mut rng));
        let shortcut = Seq::new()
            .then(Conv1d::new(2, 3, 1, &mut rng))
            .then(BatchNorm1d::new(3));
        let mut r = Seq::new().then(Residual::new(main, Some(shortcut)));
        check_layer_gradients(&mut r, &ramp(&[2, 2, 6]), 1e-2, 3e-2);
    }

    #[test]
    fn identity_residual_gradients() {
        let mut rng = StdRng::seed_from_u64(3);
        let main = Seq::new()
            .then(Conv1d::new(3, 3, 3, &mut rng))
            .then(Gelu::new());
        let mut r = Seq::new().then(Residual::new(main, None));
        check_layer_gradients(&mut r, &ramp(&[2, 3, 5]), 1e-2, 2e-2);
    }

    #[test]
    fn nested_concat_gradients() {
        let mut rng = StdRng::seed_from_u64(4);
        let inner = Concat::new(vec![
            Seq::new().then(Conv1d::new(2, 1, 3, &mut rng)),
            Seq::new().then(Conv1d::new(2, 2, 5, &mut rng)),
        ]);
        let mut c = Seq::new().then(Concat::new(vec![
            Seq::new().then(Conv1d::new(2, 2, 1, &mut rng)).then(inner),
            Seq::new()
                .then(SameMaxPool1d::new(3))
                .then(Conv1d::new(2, 1, 1, &mut rng)),
        ]));
        // Distinct neighbours keep the pooling argmax stable under ±eps.
        let x = ramp(&[2, 2, 8]);
        let y = c.forward(&x, false);
        assert_eq!(y.shape(), &[2, 4, 8]);
        check_layer_gradients(&mut c, &x, 1e-3, 2e-2);
    }

    #[test]
    fn enumeration_follows_declaration_order() {
        let mut rng = StdRng::seed_from_u64(5);
        let main = Seq::new()
            .then(Conv1d::new(1, 2, 3, &mut rng))
            .then(BatchNorm1d::new(2))
            .then(Relu::new());
        let shortcut = Seq::new()
            .then(Conv1d::new(1, 2, 1, &mut rng))
            .then(BatchNorm1d::new(2));
        let mut r = Residual::new(main, Some(shortcut));
        // conv w/b, bn γ/β, shortcut conv w/b, shortcut bn γ/β.
        let kernels: Vec<usize> = r.params().iter().map(|p| p.numel()).collect();
        assert_eq!(kernels, vec![6, 2, 2, 2, 2, 2, 2, 2]);
        assert_eq!(r.buffers().len(), 4);
        assert_eq!(r.buffers_mut().len(), 4);
        // A clone is deep: mutating it leaves the original untouched.
        let mut copy = r.clone();
        copy.params_mut()[0].value.data_mut()[0] += 1.0;
        assert_ne!(copy.params()[0].value, r.params()[0].value);
    }
}
