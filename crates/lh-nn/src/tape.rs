//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] is an append-only arena of nodes; every operation records its
//! parents and enough metadata to run the chain rule backwards. Parameters
//! enter via [`Tape::watch`], which clones the current value out of a
//! [`crate::params::ParamStore`] and registers the node under the parameter
//! name so optimizers can collect gradients after [`Tape::backward`].
//!
//! Leaves come in two kinds. A watched parameter and a [`Tape::constant`]
//! are *differentiated*: [`Tape::backward`] leaves their gradients in place
//! for [`Tape::grad`]. Model data — input steps, masks, zero states, graph
//! features, targets, loss weights — enters through [`Tape::input`] and is
//! never differentiated. Every node records whether a differentiated leaf
//! is among its ancestors, and `backward` skips every node and every
//! parent gradient for which none is: that work cannot reach a parameter.
//! It visits the remaining nodes in reverse creation order, giving each
//! parent its contributions in the same order as a full pass would, so the
//! gradients it does compute are bit for bit those of a full pass.
//! Interior gradients are moved, not cloned, and each is dropped once it
//! has been propagated, so after `backward` [`Tape::grad`] of an interior
//! node (and of a data leaf) reads zeros.
//!
//! Shapes are strictly 2-D (`rows × cols`). Binary elementwise ops support
//! right-hand broadcast of a row vector (`1×n`), a column vector (`m×1`),
//! or a scalar (`1×1`) against an `m×n` left operand — the only patterns
//! the models need — with gradients reduced back to the broadcast shape.
//! The four of them share one forward loop, which runs row by row over
//! contiguous slices.
//!
//! Every unary elementwise op (`tanh`, `sqrt`, `cosh`, …) is one `Op`
//! variant carrying a private `Unary` that knows the op's value at `x` and
//! the gradient it carries back given `x` and `y = f(x)`, so the forward
//! pass and `backward` each have a single elementwise path for all of them.
//!
//! # Fused ops
//!
//! Two layers are one node each. Each one's forward and backward replay,
//! in the same order, every `f32` operation of the per-node composition it
//! replaces, so what they compute is bit for bit what that composition
//! computed (the layers' tests keep the composition as the oracle):
//!
//! * [`Tape::gat_attend`], one graph-attention layer's neighbourhood
//!   softmax and mix, replaces `select_rows`, `transpose`, `add`,
//!   `leaky_relu`, `softmax_rows`, `matmul` and `stack_rows` per node;
//! * [`Tape::lstm_step`], one masked LSTM step whose value is the state
//!   `[h | c]`, replaces the step's 25 nodes: two `matmul`s, the gate
//!   `add`s, four `slice_cols`, the activations, the cell products and the
//!   mask blend. Its mask is data. A half of the state that no later op
//!   reads gets the zeros a slice scatters, where the composition gave it
//!   no gradient at all: the parameter gradients keep the composition's
//!   bits, and the state's gradient can differ only in the sign of a zero.
//!
//! # Forks
//!
//! [`Tape::fork`] runs independent subgraphs — closures that read only
//! parameters and data — on child tapes across threads and imports each
//! child's output as one node. When `backward` reaches those nodes it runs
//! the children's backward passes in parallel, seeded with their output
//! gradients, and folds each child's parameter gradients into the parent's
//! leaves in **reverse child order**: the order in which one tape's reverse
//! sweep would have added them. That is exact under one rule: **a child
//! adds at most one term to every parameter that another child or a parent
//! node also touches.** (One tape would add a child's terms to the running
//! sum one at a time; a fold adds their sum once.) A parameter only one
//! child touches may take any number of terms. Which thread runs which
//! child never changes a bit; a fork started on a fork's worker thread runs
//! inline, so nested forks never multiply threads.
//!
//! Every op's gradient is verified against central finite differences in
//! this module's tests; the workspace's `tests/property_based.rs`
//! (`autodiff_matches_finite_differences`) repeats the check on random
//! inputs.

use crate::params::ParamStore;
use crate::tensor::Tensor;
use std::cell::Cell;
use std::sync::Mutex;

/// Handle to a node in a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    /// Arena index (for diagnostics).
    pub fn id(&self) -> usize {
        self.0
    }
}

#[derive(Debug)]
enum Op {
    Leaf,
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
    Matmul(usize, usize),
    Unary(usize, Unary),
    SumAll(usize),
    MeanAll(usize),
    RowSum(usize),
    SoftmaxRows(usize),
    ConcatCols(usize, usize),
    SliceCols(usize, usize, usize),
    Transpose(usize),
    SelectRows(usize, Vec<usize>),
    StackRows(Vec<usize>),
    LorentzInner(usize, usize),
    RowDot(usize, usize),
    GatAttend(Box<GatAttend>),
    LstmStep(Box<LstmStep>),
    /// One child's output of fork block `.0` (see [`Tape::fork`]).
    Import(usize),
}

impl Op {
    /// Calls `f` on every input of the op.
    fn for_each_input(&self, mut f: impl FnMut(usize)) {
        match self {
            Op::Leaf | Op::Import(_) => {}
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Div(a, b)
            | Op::Matmul(a, b)
            | Op::ConcatCols(a, b)
            | Op::LorentzInner(a, b)
            | Op::RowDot(a, b) => {
                f(*a);
                f(*b);
            }
            Op::Unary(a, _)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::RowSum(a)
            | Op::SoftmaxRows(a)
            | Op::SliceCols(a, _, _)
            | Op::Transpose(a)
            | Op::SelectRows(a, _) => f(*a),
            Op::StackRows(ids) => ids.iter().for_each(|&i| f(i)),
            Op::GatAttend(g) => [g.wh, g.s1, g.s2].into_iter().for_each(f),
            Op::LstmStep(s) => [s.x, s.state, s.mask, s.wx, s.wh, s.b]
                .into_iter()
                .for_each(f),
        }
    }
}

/// What [`Tape::gat_attend`] keeps for its backward: the inputs, the
/// neighbour lists in CSR form, and per edge the pre-activation logit and
/// the attention weight.
#[derive(Debug)]
struct GatAttend {
    wh: usize,
    s1: usize,
    s2: usize,
    /// Node `i`'s neighbours are `ids[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    ids: Vec<usize>,
    /// `s1[i] + s2[j]` per edge, before the leaky ReLU.
    logits: Vec<f32>,
    /// Softmax weight `α_ij` per edge.
    alpha: Vec<f32>,
}

/// What [`Tape::lstm_step`] keeps for its backward: the inputs, the gate
/// activations and the cell.
#[derive(Debug)]
struct LstmStep {
    x: usize,
    state: usize,
    mask: usize,
    wx: usize,
    wh: usize,
    b: usize,
    /// `[i | f | g | o]` after their sigmoid / tanh, `B×4H`.
    acts: Tensor,
    /// `[c | tanh(c)]` before the mask blend, `B×2H`.
    cell: Tensor,
}

/// Negative slope of the leaky ReLU on GAT attention logits.
const GAT_SLOPE: f32 = 0.2;

/// An elementwise op `y = f(x)`: its value and its derivative, each
/// written in the one operation order every trained bit depends on. Both
/// methods match once per tensor, so every op runs its own monomorphic
/// loop.
#[derive(Debug, Clone, Copy)]
enum Unary {
    Scale(f32),
    AddConst(f32),
    Powf(f32),
    Tanh,
    Sigmoid,
    LeakyRelu(f32),
    Sqrt,
    Cosh,
    Sinh,
    Abs,
    Square,
    Softplus,
}

impl Unary {
    /// `f(x)`, elementwise.
    fn value(self, x: &Tensor) -> Tensor {
        match self {
            Unary::Scale(c) => x.map(|x| c * x),
            Unary::AddConst(c) => x.map(|x| x + c),
            Unary::Powf(p) => x.map(|x| x.powf(p)),
            Unary::Tanh => x.map(f32::tanh),
            Unary::Sigmoid => x.map(sigmoid),
            Unary::LeakyRelu(alpha) => x.map(|x| leaky_relu(x, alpha)),
            Unary::Sqrt => x.map(f32::sqrt),
            Unary::Cosh => x.map(f32::cosh),
            Unary::Sinh => x.map(f32::sinh),
            Unary::Abs => x.map(f32::abs),
            Unary::Square => x.map(|x| x * x),
            Unary::Softplus => x.map(|x| x.max(0.0) + (-x.abs()).exp().ln_1p()),
        }
    }

    /// Turns the upstream gradient `g` into the one carried back to the
    /// input, in place, given the input `x` and the output `y = f(x)`.
    fn grad(self, g: &mut Tensor, x: &Tensor, y: &Tensor) {
        match self {
            Unary::Scale(c) => chain(g, x, y, |g, _, _| c * g),
            Unary::AddConst(_) => {}
            Unary::Powf(p) => chain(g, x, y, |g, x, _| g * (p * x.powf(p - 1.0))),
            Unary::Tanh => chain(g, x, y, |g, _, y| g * (1.0 - y * y)),
            Unary::Sigmoid => chain(g, x, y, |g, _, y| g * (y * (1.0 - y))),
            Unary::LeakyRelu(alpha) => chain(g, x, y, |g, x, _| leaky_relu_grad(g, x, alpha)),
            Unary::Sqrt => chain(g, x, y, |g, _, y| g * (0.5 / y.max(1e-12))),
            Unary::Cosh => chain(g, x, y, |g, x, _| g * x.sinh()),
            Unary::Sinh => chain(g, x, y, |g, x, _| g * x.cosh()),
            Unary::Abs => chain(g, x, y, |g, x, _| g * x.signum()),
            Unary::Square => chain(g, x, y, |g, x, _| g * (2.0 * x)),
            Unary::Softplus => chain(g, x, y, |g, x, _| g * (1.0 / (1.0 + (-x).exp()))),
        }
    }
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// `1 − m` as the mask blend computed it: `scale(m, −1)`, then
/// `add_const(1)`. (`−1·m` and `−m` differ in the sign of a NaN.)
#[inline]
#[allow(clippy::neg_multiply)]
fn one_minus(m: f32) -> f32 {
    -1.0 * m + 1.0
}

#[inline]
fn leaky_relu(x: f32, alpha: f32) -> f32 {
    if x >= 0.0 {
        x
    } else {
        alpha * x
    }
}

#[inline]
fn leaky_relu_grad(g: f32, x: f32, alpha: f32) -> f32 {
    if x < 0.0 {
        g * alpha
    } else {
        g
    }
}

/// `g ← d(g, x, y)` elementwise: the one backward loop of the unary ops.
fn chain(g: &mut Tensor, x: &Tensor, y: &Tensor, d: impl Fn(f32, f32, f32) -> f32) {
    for ((gv, &xv), &yv) in g.data_mut().iter_mut().zip(x.data()).zip(y.data()) {
        *gv = d(*gv, xv, yv);
    }
}

struct Node {
    value: Tensor,
    op: Op,
    /// Whether a differentiated leaf is this node or one of its ancestors.
    tracked: bool,
}

/// The autodiff graph. Create one per forward/backward pass.
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Option<Tensor>>,
    watched: Vec<(String, Var)>,
    /// The children of every [`Tape::fork`], in fork order.
    forks: Vec<Fork>,
    /// Gradient terms the last [`Tape::backward`] handed to a parent.
    terms: usize,
}

/// One [`Tape::fork`]: its children, kept for `backward`.
struct Fork {
    /// Each child's tape and output, in child order.
    children: Vec<(Tape, Var)>,
    /// The parent node holding child 0's output; child `i`'s is `first + i`.
    first: usize,
    /// Per child, `(child leaf, parent leaf)` for every parameter it
    /// watched.
    links: Vec<Vec<(usize, usize)>>,
    /// Worker threads for the children's backward, as for their forward.
    threads: usize,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

/// Validates broadcast compatibility of `b` against `a`.
fn broadcast_check(a: (usize, usize), b: (usize, usize)) {
    let ok =
        a == b || (b.0 == 1 && b.1 == a.1) || (b.1 == 1 && b.0 == a.0) || (b.0 == 1 && b.1 == 1);
    assert!(ok, "cannot broadcast {b:?} against {a:?}");
}

/// A broadcast right-hand operand against one row of the left one.
enum Bcast<'a> {
    /// Same shape or a row vector: one value per column.
    Row(&'a [f32]),
    /// A column vector or a scalar: one value for the whole row.
    Splat(f32),
}

/// `b`'s values against row `r` of a left operand it broadcasts to.
#[inline]
fn bcast_row(b: &Tensor, r: usize) -> Bcast<'_> {
    match b.shape() {
        (1, 1) => Bcast::Splat(b.data()[0]),
        (_, 1) => Bcast::Splat(b.data()[r]),
        (1, _) => Bcast::Row(b.data()),
        _ => Bcast::Row(b.row(r)),
    }
}

/// `f(a, b)` per element of `a`, with `b` broadcast against it, row by
/// row in row-major order.
fn broadcast_map(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let (rows, cols) = a.shape();
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        let xa = a.row(r);
        match bcast_row(b, r) {
            Bcast::Row(yb) => out.extend(xa.iter().zip(yb).map(|(&x, &y)| f(x, y))),
            Bcast::Splat(y) => out.extend(xa.iter().map(|&x| f(x, y))),
        }
    }
    Tensor::from_vec(rows, cols, out)
}

/// Sums `grad` (shaped like the broadcast output) down to `shape`, adding
/// each target's terms to `0.0` in row-major order.
fn reduce_to_shape(grad: Tensor, shape: (usize, usize)) -> Tensor {
    if grad.shape() == shape {
        return grad;
    }
    match shape {
        (1, 1) => {
            let mut s = 0.0;
            for &v in grad.data() {
                s += v;
            }
            Tensor::scalar(s)
        }
        (1, _) => sum_rows(&grad),
        (rows, _) => {
            let out = (0..rows)
                .map(|r| {
                    let mut s = 0.0;
                    for &v in grad.row(r) {
                        s += v;
                    }
                    s
                })
                .collect();
            Tensor::from_vec(rows, 1, out)
        }
    }
}

/// The `1×cols` column sums of `t`, each added to `0.0` in row order.
fn sum_rows(t: &Tensor) -> Tensor {
    let mut out = vec![0.0; t.cols()];
    for r in 0..t.rows() {
        for (o, &v) in out.iter_mut().zip(t.row(r)) {
            *o += v;
        }
    }
    Tensor::from_vec(1, t.cols(), out)
}

/// Columns `from..to` of `t`, copied out.
fn cols(t: &Tensor, from: usize, to: usize) -> Tensor {
    let mut out = Vec::with_capacity(t.rows() * (to - from));
    for r in 0..t.rows() {
        out.extend_from_slice(&t.row(r)[from..to]);
    }
    Tensor::from_vec(t.rows(), to - from, out)
}

/// One upstream gradient handed to up to two parents: a clone only when
/// both need it.
fn fan_out(g: Tensor, to_a: bool, to_b: bool) -> (Option<Tensor>, Option<Tensor>) {
    match (to_a, to_b) {
        (true, true) => (Some(g.clone()), Some(g)),
        (true, false) => (Some(g), None),
        (false, true) => (None, Some(g)),
        (false, false) => (None, None),
    }
}

/// Adds one contribution to a node's gradient (the first one is moved in).
fn accumulate(grads: &mut [Option<Tensor>], node: usize, grad: Tensor) {
    match &mut grads[node] {
        Some(g) => g.add_assign(&grad),
        slot @ None => *slot = Some(grad),
    }
}

thread_local! {
    /// Set on a fork's worker threads, where a further fork runs inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Threads a fork started here may use: the available parallelism, or 1
/// on a fork's worker thread, so nested forks never multiply threads.
fn fork_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// `f` applied to every item, results in item order: the executor of
/// [`Tape::fork`] and of its backward. Items go one at a time to up to
/// `threads` scoped worker threads (at most one per item), so uneven items
/// balance; the calling thread waits. Runs inline when one thread would
/// do. Which thread runs an item never changes its result, so this is as
/// deterministic as `f`.
fn fork_join<I: Send, T: Send>(threads: usize, items: Vec<I>, f: impl Fn(I) -> T + Sync) -> Vec<T> {
    let (n, threads) = (items.len(), threads.min(items.len()));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let work = || {
            IN_WORKER.with(|w| w.set(true));
            let mut done = Vec::new();
            loop {
                let next = queue
                    .lock()
                    .expect("no thread panics holding the queue")
                    .next();
                let Some((i, item)) = next else {
                    return done;
                };
                done.push((i, f(item)));
            }
        };
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
        for worker in workers {
            match worker.join() {
                Ok(done) => done.into_iter().for_each(|(i, t)| out[i] = Some(t)),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    out.into_iter()
        .map(|t| t.expect("every item ran"))
        .collect()
}

impl Tape {
    /// Empty tape.
    pub fn new() -> Self {
        Tape {
            nodes: Vec::with_capacity(256),
            grads: Vec::new(),
            watched: Vec::new(),
            forks: Vec::new(),
            terms: 0,
        }
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        let mut tracked = false;
        op.for_each_input(|p| tracked |= self.nodes[p].tracked);
        self.nodes.push(Node { value, op, tracked });
        Var(self.nodes.len() - 1)
    }

    fn leaf(&mut self, value: Tensor, tracked: bool) -> Var {
        self.nodes.push(Node {
            value,
            op: Op::Leaf,
            tracked,
        });
        Var(self.nodes.len() - 1)
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Inserts a constant (non-parameter) input that is still
    /// differentiated: after [`Tape::backward`], [`Tape::grad`] returns its
    /// gradient (what gradient checks read).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.leaf(value, true)
    }

    /// Inserts model data: a leaf [`Tape::backward`] never differentiates,
    /// so no gradient flows into it or into anything computed from data
    /// alone. Its [`Tape::grad`] is zeros.
    pub fn input(&mut self, value: Tensor) -> Var {
        self.leaf(value, false)
    }

    /// Inserts a named parameter from the store; repeated watches of the
    /// same name return the same node so gradients accumulate correctly.
    pub fn watch(&mut self, store: &ParamStore, name: &str) -> Var {
        if let Some((_, var)) = self.watched.iter().find(|(n, _)| n == name) {
            return *var;
        }
        let v = self.leaf(store.get(name).clone(), true);
        self.watched.push((name.to_string(), v));
        v
    }

    /// Watched `(name, var)` pairs (the optimizer's iteration set).
    pub fn watched(&self) -> &[(String, Var)] {
        &self.watched
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Gradient of a differentiated leaf (a watched parameter or a
    /// [`Tape::constant`]) after [`Tape::backward`]; zeros if it did not
    /// influence the loss. Zeros too for a data leaf ([`Tape::input`]) and
    /// for every interior node, whose gradient `backward` drops once it has
    /// been propagated.
    pub fn grad(&self, v: Var) -> Tensor {
        match &self.grads.get(v.0) {
            Some(Some(g)) => g.clone(),
            _ => {
                let (r, c) = self.nodes[v.0].value.shape();
                Tensor::zeros(r, c)
            }
        }
    }

    /// How many gradient terms the last [`Tape::backward`] handed to a
    /// parent node, forked children's included: one per parent that a
    /// node reaching the loss passed a gradient to. Every parent that
    /// cannot reach a differentiated leaf is skipped, so this counts the
    /// work data leaves save.
    pub fn backward_terms(&self) -> usize {
        self.terms
    }

    fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    // ---- binary ops -----------------------------------------------------

    /// The one forward loop of the broadcast binary ops: `f(a, b)` per
    /// element of `a`, with `b` broadcast against it.
    fn binary(&mut self, a: Var, b: Var, f: impl Fn(f32, f32) -> f32, op: Op) -> Var {
        broadcast_check(self.shape(a), self.shape(b));
        let out = broadcast_map(&self.nodes[a.0].value, &self.nodes[b.0].value, f);
        self.push(out, op)
    }

    /// Elementwise `a + b` with RHS broadcast.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x + y, Op::Add(a.0, b.0))
    }

    /// Elementwise `a − b` with RHS broadcast.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x - y, Op::Sub(a.0, b.0))
    }

    /// Elementwise `a ⊙ b` with RHS broadcast.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x * y, Op::Mul(a.0, b.0))
    }

    /// Elementwise `a / b` with RHS broadcast (caller keeps `b` away from 0).
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x / y, Op::Div(a.0, b.0))
    }

    /// Matrix product `a(m×k) · b(k×n)`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let out = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(out, Op::Matmul(a.0, b.0))
    }
    // ---- unary ops ------------------------------------------------------

    fn unary(&mut self, a: Var, f: Unary) -> Var {
        let out = f.value(&self.nodes[a.0].value);
        self.push(out, Op::Unary(a.0, f))
    }

    /// `c · a` for a compile-time constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        self.unary(a, Unary::Scale(c))
    }

    /// `a + c` for a constant.
    pub fn add_const(&mut self, a: Var, c: f32) -> Var {
        self.unary(a, Unary::AddConst(c))
    }

    /// `a^p` (positive inputs only — used on norms).
    pub fn powf(&mut self, a: Var, p: f32) -> Var {
        self.unary(a, Unary::Powf(p))
    }

    /// `tanh(a)`.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.unary(a, Unary::Tanh)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.unary(a, Unary::Sigmoid)
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, a: Var, alpha: f32) -> Var {
        self.unary(a, Unary::LeakyRelu(alpha))
    }

    /// `√a` (non-negative inputs; pair with [`Tape::add_const`] for eps).
    pub fn sqrt(&mut self, a: Var) -> Var {
        self.unary(a, Unary::Sqrt)
    }

    /// `cosh(a)`.
    pub fn cosh(&mut self, a: Var) -> Var {
        self.unary(a, Unary::Cosh)
    }

    /// `sinh(a)`.
    pub fn sinh(&mut self, a: Var) -> Var {
        self.unary(a, Unary::Sinh)
    }

    /// `|a|`.
    pub fn abs(&mut self, a: Var) -> Var {
        self.unary(a, Unary::Abs)
    }

    /// `a²` (cheaper than `powf(2)`).
    pub fn square(&mut self, a: Var) -> Var {
        self.unary(a, Unary::Square)
    }

    /// Numerically stable `softplus(a) = ln(1 + eᵃ)`.
    pub fn softplus(&mut self, a: Var) -> Var {
        self.unary(a, Unary::Softplus)
    }

    // ---- reductions & shape ops ----------------------------------------

    /// Sum of all elements → `1×1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s = self.nodes[a.0].value.sum();
        self.push(Tensor::scalar(s), Op::SumAll(a.0))
    }

    /// Mean of all elements → `1×1`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = &self.nodes[a.0].value;
        let s = v.sum() / v.len().max(1) as f32;
        self.push(Tensor::scalar(s), Op::MeanAll(a.0))
    }

    /// Per-row sum: `m×n → m×1`.
    pub fn row_sum(&mut self, a: Var) -> Var {
        let v = &self.nodes[a.0].value;
        let mut out = Tensor::zeros(v.rows(), 1);
        for r in 0..v.rows() {
            out.set(r, 0, v.row(r).iter().sum());
        }
        self.push(out, Op::RowSum(a.0))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let v = &self.nodes[a.0].value;
        let mut out = Tensor::zeros(v.rows(), v.cols());
        for r in 0..v.rows() {
            let row = v.row(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
            let sum: f32 = exps.iter().sum();
            for (c, e) in exps.iter().enumerate() {
                out.set(r, c, e / sum);
            }
        }
        self.push(out, Op::SoftmaxRows(a.0))
    }

    /// Horizontal concatenation `[a | b]` (equal row counts).
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(va.rows(), vb.rows(), "concat_cols row mismatch");
        let mut out = Tensor::zeros(va.rows(), va.cols() + vb.cols());
        for r in 0..va.rows() {
            out.row_mut(r)[..va.cols()].copy_from_slice(va.row(r));
            out.row_mut(r)[va.cols()..].copy_from_slice(vb.row(r));
        }
        self.push(out, Op::ConcatCols(a.0, b.0))
    }

    /// Column slice `a[:, from..to]`.
    pub fn slice_cols(&mut self, a: Var, from: usize, to: usize) -> Var {
        let v = &self.nodes[a.0].value;
        assert!(from < to && to <= v.cols(), "slice out of range");
        let mut out = Tensor::zeros(v.rows(), to - from);
        for r in 0..v.rows() {
            out.row_mut(r).copy_from_slice(&v.row(r)[from..to]);
        }
        self.push(out, Op::SliceCols(a.0, from, to))
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let out = self.nodes[a.0].value.transpose();
        self.push(out, Op::Transpose(a.0))
    }

    /// Embedding lookup: rows `ids` of `table(V×d)` → `len(ids)×d`.
    /// Backward scatter-adds into the table gradient.
    pub fn select_rows(&mut self, table: Var, ids: &[usize]) -> Var {
        let v = &self.nodes[table.0].value;
        let mut out = Tensor::zeros(ids.len(), v.cols());
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < v.rows(), "row id {id} out of range {}", v.rows());
            out.row_mut(r).copy_from_slice(v.row(id));
        }
        self.push(out, Op::SelectRows(table.0, ids.to_vec()))
    }

    /// Stacks `1×n` rows into an `m×n` matrix.
    pub fn stack_rows(&mut self, rows: &[Var]) -> Var {
        assert!(!rows.is_empty(), "stack_rows needs at least one row");
        let n = self.shape(rows[0]).1;
        let mut out = Tensor::zeros(rows.len(), n);
        for (r, &v) in rows.iter().enumerate() {
            let t = &self.nodes[v.0].value;
            assert_eq!(t.shape(), (1, n), "stack_rows expects 1×{n} rows");
            out.row_mut(r).copy_from_slice(t.row(0));
        }
        let ids: Vec<usize> = rows.iter().map(|v| v.0).collect();
        self.push(out, Op::StackRows(ids))
    }

    /// Row-paired Lorentz inner product: for `a, b ∈ m×(n+1)` returns the
    /// `m×1` column `⟨aᵣ, bᵣ⟩ = −aᵣ₀bᵣ₀ + Σ_{c≥1} aᵣ_c bᵣ_c`.
    pub fn lorentz_inner(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(va.shape(), vb.shape(), "lorentz_inner shape mismatch");
        assert!(va.cols() >= 2, "lorentz_inner needs ≥ 2 columns");
        let mut out = Tensor::zeros(va.rows(), 1);
        for r in 0..va.rows() {
            let (ra, rb) = (va.row(r), vb.row(r));
            let mut s = -ra[0] * rb[0];
            for c in 1..ra.len() {
                s += ra[c] * rb[c];
            }
            out.set(r, 0, s);
        }
        self.push(out, Op::LorentzInner(a.0, b.0))
    }

    /// Row-paired Euclidean dot product: `m×n × m×n → m×1`.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(va.shape(), vb.shape(), "row_dot shape mismatch");
        let mut out = Tensor::zeros(va.rows(), 1);
        for r in 0..va.rows() {
            out.set(
                r,
                0,
                va.row(r).iter().zip(vb.row(r)).map(|(x, y)| x * y).sum(),
            );
        }
        self.push(out, Op::RowDot(a.0, b.0))
    }

    /// One graph-attention layer's attend-and-mix step as a single node.
    /// For projected node features `wh (N×out)` and attention scores
    /// `s1, s2 (N×1)`, row `i` of the `N×out` output is
    /// `Σ_j α_ij · wh_j` over `j ∈ neighbors[i]`, with
    /// `α_i = softmax_j(LeakyReLU₀.₂(s1_i + s2_j))`; a neighbour listed
    /// twice counts twice.
    ///
    /// Forward and backward run, in the same order, the `f32` operations
    /// of the per-node composition `select_rows` → `transpose` → `add` →
    /// `leaky_relu` → `softmax_rows` → `matmul`, then `stack_rows`. The
    /// gradients are bit-identical to that composition's when this op is
    /// the last consumer of `wh`, `s1` and `s2`, which must be three
    /// distinct nodes.
    pub fn gat_attend(&mut self, wh: Var, s1: Var, s2: Var, neighbors: &[Vec<usize>]) -> Var {
        assert!(
            wh != s1 && wh != s2 && s1 != s2,
            "gat_attend needs three distinct inputs"
        );
        let n = neighbors.len();
        let (vwh, vs1, vs2) = (
            &self.nodes[wh.0].value,
            &self.nodes[s1.0].value,
            &self.nodes[s2.0].value,
        );
        assert_eq!(vwh.rows(), n, "gat_attend: one neighbour list per row");
        assert_eq!(vs1.shape(), (n, 1), "gat_attend: s1 must be N×1");
        assert_eq!(vs2.shape(), (n, 1), "gat_attend: s2 must be N×1");
        let edges = neighbors.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut ids = Vec::with_capacity(edges);
        let mut logits = Vec::with_capacity(edges);
        let mut alpha = Vec::with_capacity(edges);
        let (mut act, mut exps) = (Vec::new(), Vec::new());
        let mut out = Tensor::zeros(n, vwh.cols());
        offsets.push(0);
        for (i, nbrs) in neighbors.iter().enumerate() {
            assert!(!nbrs.is_empty(), "node {i} has an empty neighborhood");
            let start = ids.len();
            let s1_i = vs1.data()[i];
            for &j in nbrs {
                assert!(j < n, "row id {j} out of range {n}");
                ids.push(j);
                logits.push(vs2.data()[j] + s1_i);
            }
            // The row softmax, as `softmax_rows` computes it.
            act.clear();
            act.extend(logits[start..].iter().map(|&x| leaky_relu(x, GAT_SLOPE)));
            let max = act.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            exps.clear();
            exps.extend(act.iter().map(|&x| (x - max).exp()));
            let sum: f32 = exps.iter().sum();
            alpha.extend(exps.iter().map(|e| e / sum));
            // The 1×k · k×out mix, as `Tensor::matmul` computes it.
            let row = out.row_mut(i);
            for (&a, &j) in alpha[start..].iter().zip(nbrs) {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in row.iter_mut().zip(vwh.row(j)) {
                    *o += a * b;
                }
            }
            offsets.push(ids.len());
        }
        let op = GatAttend {
            wh: wh.0,
            s1: s1.0,
            s2: s2.0,
            offsets,
            ids,
            logits,
            alpha,
        };
        self.push(out, Op::GatAttend(Box::new(op)))
    }

    /// One masked LSTM step as a single node. `state` is `[h | c]`
    /// (`B×2H`), `x` the `B×I` input, `mask` the `B×1` validity column,
    /// and `wx (I×4H)`, `wh (H×4H)`, `b (1×4H)` the parameters, gate
    /// blocks in the order input, forget, candidate, output. The value is
    /// the next state `[h' | c']`, each half blended as
    /// `new·m + old·(−1·m + 1)`, so a row whose mask is 0 keeps its state.
    ///
    /// Forward and backward run, in the same order, every `f32` operation
    /// of the 25-node composition it replaces: `Tensor::matmul` for `x·Wx`
    /// and `h·Wh`, then `(xg + hg) + b`; the sigmoid as `1/(1 + e^(−x))`
    /// and `tanh`; `(f·c) + (i·g)` and `o·tanh(c)`; the mask blend. Each
    /// gate block's gradient keeps the `+ 0.0` that the composition's four
    /// slice scatters added. The mask must be data ([`Tape::input`]); `x`
    /// gets a gradient only when it is tracked. The gradients are that
    /// composition's bits when the six inputs are distinct nodes, `state`
    /// feeds this op alone, and one op reads this node (the next step, or
    /// a slice). A half that no op reads gets a slice's `+0.0`s where the
    /// composition gave it no gradient: `∂c·m + ∂tanh` with `∂c = +0.0`
    /// differs from `∂tanh` only in the sign of a zero, which the gate
    /// gradients' `+ 0.0` erases, so only `state`'s gradient can differ,
    /// in the sign of a zero. Two ops reading one half each would sum
    /// their zero-padded gradients, as two slices of one node always do:
    /// the same values, but a `−0.0` upstream can come out `+0.0`.
    pub fn lstm_step(&mut self, x: Var, state: Var, mask: Var, wx: Var, wh: Var, b: Var) -> Var {
        let inputs = [x, state, mask, wx, wh, b];
        for (k, v) in inputs.iter().enumerate() {
            assert!(
                !inputs[k + 1..].contains(v),
                "lstm_step needs six distinct inputs"
            );
        }
        assert!(
            !self.nodes[mask.0].tracked,
            "lstm_step: the mask must be data (Tape::input)"
        );
        let (vx, vs, vm) = (
            &self.nodes[x.0].value,
            &self.nodes[state.0].value,
            &self.nodes[mask.0].value,
        );
        let (vwx, vwh, vb) = (
            &self.nodes[wx.0].value,
            &self.nodes[wh.0].value,
            &self.nodes[b.0].value,
        );
        let (rows, hd) = (vs.rows(), vwh.rows());
        assert_eq!(vs.cols(), 2 * hd, "lstm_step: state must be B×2H");
        assert_eq!(vm.shape(), (rows, 1), "lstm_step: mask must be B×1");
        assert_eq!(vx.rows(), rows, "lstm_step: one input row per state row");
        assert_eq!(
            vwx.shape(),
            (vx.cols(), 4 * hd),
            "lstm_step: wx must be I×4H"
        );
        assert_eq!(vwh.shape(), (hd, 4 * hd), "lstm_step: wh must be H×4H");
        assert_eq!(vb.shape(), (1, 4 * hd), "lstm_step: b must be 1×4H");
        let xg = vx.matmul(vwx);
        let hg = cols(vs, 0, hd).matmul(vwh);
        let mut acts = Tensor::zeros(rows, 4 * hd);
        let mut cell = Tensor::zeros(rows, 2 * hd);
        let mut out = Tensor::zeros(rows, 2 * hd);
        for r in 0..rows {
            let a = acts.row_mut(r);
            for (((a, &x), &h), &b) in a.iter_mut().zip(xg.row(r)).zip(hg.row(r)).zip(vb.data()) {
                *a = (x + h) + b;
            }
            let (ifg, o) = a.split_at_mut(3 * hd);
            let (i_f, g) = ifg.split_at_mut(2 * hd);
            for v in i_f.iter_mut().chain(o.iter_mut()) {
                *v = sigmoid(*v);
            }
            for v in g.iter_mut() {
                *v = v.tanh();
            }
            let a = acts.row(r);
            let (m, old) = (vm.data()[r], vs.row(r));
            let inv = one_minus(m);
            let (cl, o_row) = (cell.row_mut(r), out.row_mut(r));
            for j in 0..hd {
                let (i, f, g, o) = (a[j], a[hd + j], a[2 * hd + j], a[3 * hd + j]);
                let (h_old, c_old) = (old[j], old[hd + j]);
                let c = f * c_old + i * g;
                let tc = c.tanh();
                cl[j] = c;
                cl[hd + j] = tc;
                o_row[j] = o * tc * m + h_old * inv;
                o_row[hd + j] = c * m + c_old * inv;
            }
        }
        let op = LstmStep {
            x: x.0,
            state: state.0,
            mask: mask.0,
            wx: wx.0,
            wh: wh.0,
            b: b.0,
            acts,
            cell,
        };
        self.push(out, Op::LstmStep(Box::new(op)))
    }

    // ---- forks -----------------------------------------------------------

    /// Runs `f(child, i)` for every `i` in `0..n`, each on a fresh child
    /// tape, across scoped threads (the available parallelism; inline
    /// when that is 1 or on a fork's own worker thread), and returns each
    /// child's output imported as one node of this tape, in child order.
    /// The children's watched parameters are watched here, child by child
    /// in order, so [`Tape::watched`] lists them as one tape running the
    /// children in turn would have.
    ///
    /// `f` sees only its child tape, so a child can read parameters and
    /// data but no node of this tape: its subgraph is independent. See the
    /// module docs for how `backward` runs the children and for the
    /// one-term rule under which that is bit for bit one tape's result.
    pub fn fork<F>(&mut self, store: &ParamStore, n: usize, f: F) -> Vec<Var>
    where
        F: Fn(&mut Tape, usize) -> Var + Sync,
    {
        self.fork_on(fork_threads(), store, n, f)
    }

    /// [`Tape::fork`] on up to `threads` worker threads.
    fn fork_on<F>(&mut self, threads: usize, store: &ParamStore, n: usize, f: F) -> Vec<Var>
    where
        F: Fn(&mut Tape, usize) -> Var + Sync,
    {
        let children = fork_join(threads, (0..n).collect(), |i| {
            let mut child = Tape::new();
            let out = f(&mut child, i);
            (child, out)
        });
        let links = children
            .iter()
            .map(|(child, _)| {
                child
                    .watched
                    .iter()
                    .map(|(name, v)| (v.0, self.watch(store, name).0))
                    .collect()
            })
            .collect();
        let (block, first) = (self.forks.len(), self.nodes.len());
        for (child, out) in &children {
            let node = &child.nodes[out.0];
            self.nodes.push(Node {
                value: node.value.clone(),
                op: Op::Import(block),
                tracked: node.tracked,
            });
        }
        self.forks.push(Fork {
            children,
            first,
            links,
            threads,
        });
        (first..self.nodes.len()).map(Var).collect()
    }

    // ---- backward -------------------------------------------------------

    /// Runs reverse-mode differentiation from scalar `loss` (`1×1`).
    /// Gradients of the differentiated leaves that influence the loss
    /// become available through [`Tape::grad`]; see the module docs for
    /// what is skipped and dropped.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.shape(loss), (1, 1), "backward requires a scalar loss");
        self.backward_from(loss, Tensor::scalar(1.0));
    }

    /// The reverse sweep, seeded with gradient `seed` at `out`.
    fn backward_from(&mut self, out: Var, seed: Tensor) {
        let Tape {
            nodes,
            grads,
            forks,
            terms: total,
            ..
        } = self;
        grads.clear();
        grads.resize_with(nodes.len(), || None);
        grads[out.0] = Some(seed);
        let need = |p: usize| nodes[p].tracked;
        let shape = |p: usize| nodes[p].value.shape();
        let mut terms = 0;

        for (i, node) in nodes.iter().enumerate().rev() {
            if !node.tracked || matches!(node.op, Op::Leaf) {
                continue;
            }
            let Some(g) = grads[i].take() else {
                continue;
            };
            if let Op::Import(block) = node.op {
                terms += join_fork(&mut forks[block], i, g, grads);
                continue;
            }
            let mut acc = |p: usize, t: Tensor| {
                terms += 1;
                accumulate(grads, p, t)
            };
            match &node.op {
                Op::Leaf | Op::Import(_) => unreachable!("handled above"),
                &Op::Add(a, b) => {
                    let (ga, gb) = fan_out(g, need(a), need(b));
                    if let Some(ga) = ga {
                        acc(a, ga);
                    }
                    if let Some(gb) = gb {
                        acc(b, reduce_to_shape(gb, shape(b)));
                    }
                }
                &Op::Sub(a, b) => {
                    let (ga, gb) = fan_out(g, need(a), need(b));
                    if let Some(ga) = ga {
                        acc(a, ga);
                    }
                    if let Some(mut gb) = gb {
                        for v in gb.data_mut() {
                            *v = -*v;
                        }
                        acc(b, reduce_to_shape(gb, shape(b)));
                    }
                }
                &Op::Mul(a, b) => {
                    let (va, vb) = (&nodes[a].value, &nodes[b].value);
                    if need(a) {
                        acc(a, broadcast_map(&g, vb, |g, y| g * y));
                    }
                    if need(b) {
                        acc(
                            b,
                            reduce_to_shape(broadcast_map(&g, va, |g, x| g * x), shape(b)),
                        );
                    }
                }
                &Op::Div(a, b) => {
                    let (va, vb) = (&nodes[a].value, &nodes[b].value);
                    if need(a) {
                        acc(a, broadcast_map(&g, vb, |g, y| g / y));
                    }
                    if need(b) {
                        let num = broadcast_map(&g, va, |g, x| -g * x);
                        let full = broadcast_map(&num, vb, |t, y| t / (y * y));
                        acc(b, reduce_to_shape(full, shape(b)));
                    }
                }
                &Op::Matmul(a, b) => {
                    if need(a) {
                        acc(a, g.matmul(&nodes[b].value.transpose()));
                    }
                    if need(b) {
                        acc(b, nodes[a].value.transpose().matmul(&g));
                    }
                }
                &Op::Unary(a, f) => {
                    let mut ga = g;
                    f.grad(&mut ga, &nodes[a].value, &node.value);
                    acc(a, ga);
                }
                &Op::SumAll(a) => {
                    let (r, c) = shape(a);
                    acc(a, Tensor::full(r, c, g.item()));
                }
                &Op::MeanAll(a) => {
                    let (r, c) = shape(a);
                    let scale = g.item() / (r * c).max(1) as f32;
                    acc(a, Tensor::full(r, c, scale));
                }
                &Op::RowSum(a) => {
                    let (r, c) = shape(a);
                    let mut ga = Tensor::zeros(r, c);
                    for rr in 0..r {
                        ga.row_mut(rr).fill(g.get(rr, 0));
                    }
                    acc(a, ga);
                }
                &Op::SoftmaxRows(a) => {
                    let y = &node.value;
                    let (r, c) = y.shape();
                    let mut ga = Tensor::zeros(r, c);
                    for rr in 0..r {
                        let dot: f32 = (0..c).map(|cc| g.get(rr, cc) * y.get(rr, cc)).sum();
                        for cc in 0..c {
                            ga.set(rr, cc, y.get(rr, cc) * (g.get(rr, cc) - dot));
                        }
                    }
                    acc(a, ga);
                }
                &Op::ConcatCols(a, b) => {
                    let ca = shape(a).1;
                    let rows = g.rows();
                    if need(a) {
                        let mut ga = Tensor::zeros(rows, ca);
                        for r in 0..rows {
                            ga.row_mut(r).copy_from_slice(&g.row(r)[..ca]);
                        }
                        acc(a, ga);
                    }
                    if need(b) {
                        let mut gb = Tensor::zeros(rows, shape(b).1);
                        for r in 0..rows {
                            gb.row_mut(r).copy_from_slice(&g.row(r)[ca..]);
                        }
                        acc(b, gb);
                    }
                }
                &Op::SliceCols(a, from, _to) => {
                    let (r, c) = shape(a);
                    let mut ga = Tensor::zeros(r, c);
                    for rr in 0..r {
                        ga.row_mut(rr)[from..from + g.cols()].copy_from_slice(g.row(rr));
                    }
                    acc(a, ga);
                }
                &Op::Transpose(a) => acc(a, g.transpose()),
                Op::SelectRows(a, ids) => {
                    let (r, c) = shape(*a);
                    let mut ga = Tensor::zeros(r, c);
                    for (row, &id) in ids.iter().enumerate() {
                        for (o, &v) in ga.row_mut(id).iter_mut().zip(g.row(row)) {
                            *o += v;
                        }
                    }
                    acc(*a, ga);
                }
                Op::StackRows(ids) => {
                    for (row, &id) in ids.iter().enumerate() {
                        if need(id) {
                            acc(id, Tensor::from_vec(1, g.cols(), g.row(row).to_vec()));
                        }
                    }
                }
                &Op::LorentzInner(a, b) => {
                    // ∂⟨a,b⟩/∂a = (−b₀, b₁, …); symmetric for b.
                    let lorentz_grad = |other: &Tensor| {
                        let mut out = Tensor::zeros(other.rows(), other.cols());
                        for rr in 0..other.rows() {
                            let gv = g.get(rr, 0);
                            let row = out.row_mut(rr);
                            row[0] = -gv * other.get(rr, 0);
                            for (cc, o) in row.iter_mut().enumerate().skip(1) {
                                *o = gv * other.get(rr, cc);
                            }
                        }
                        out
                    };
                    if need(a) {
                        acc(a, lorentz_grad(&nodes[b].value));
                    }
                    if need(b) {
                        acc(b, lorentz_grad(&nodes[a].value));
                    }
                }
                &Op::RowDot(a, b) => {
                    if need(a) {
                        acc(a, broadcast_map(&nodes[b].value, &g, |v, gv| gv * v));
                    }
                    if need(b) {
                        acc(b, broadcast_map(&nodes[a].value, &g, |v, gv| gv * v));
                    }
                }
                Op::GatAttend(op) => gat_attend_backward(op, &g, nodes, &mut acc),
                Op::LstmStep(op) => lstm_step_backward(op, &g, nodes, &mut acc),
            }
        }
        *total = terms;
    }
}

/// Runs the backward of fork block `fork`, reached at its import node
/// `at` with gradient `g`: every child whose output has a gradient runs
/// its backward seeded with it, in parallel, and then each child's
/// parameter gradients are added into the parent's leaves, the last
/// child's first. Returns the gradient terms handed on.
fn join_fork(fork: &mut Fork, at: usize, g: Tensor, grads: &mut [Option<Tensor>]) -> usize {
    // Every consumer of the imports comes after them, so their gradients
    // are complete; `at` is the last one that has a gradient.
    let mut g = Some(g);
    let seeds = (fork.first..fork.first + fork.children.len()).map(|v| {
        if v == at {
            g.take()
        } else {
            grads[v].take()
        }
    });
    let jobs = std::mem::take(&mut fork.children).into_iter().zip(seeds);
    fork.children = fork_join(fork.threads, jobs.collect(), |((mut child, out), seed)| {
        match seed {
            Some(seed) => child.backward_from(out, seed),
            None => {
                child.grads.clear();
                child.terms = 0;
            }
        }
        (child, out)
    });
    let mut terms = 0;
    for ((child, _), links) in fork.children.iter_mut().zip(&fork.links).rev() {
        terms += child.terms;
        for &(from, to) in links {
            if let Some(g) = child.grads.get_mut(from).and_then(Option::take) {
                terms += 1;
                accumulate(grads, to, g);
            }
        }
    }
    terms
}

/// The backward of [`Tape::lstm_step`]: the composition's nodes in
/// reverse, fused per element where they are elementwise. In the order
/// the composition ran them: the mask blend (`oc`, `oh`, `mc`, `mh`; the
/// mask is data, so `1 − m` gets nothing), `o·tanh(c)`, `tanh`,
/// `(f·c) + (i·g)`, the activations, the four slice scatters, `+ b`, then
/// the `h·Wh` and `x·Wx` matmuls. Both halves of `g` are read: an unread
/// half arrives as a slice's zeros.
fn lstm_step_backward(
    op: &LstmStep,
    g: &Tensor,
    nodes: &[Node],
    acc: &mut impl FnMut(usize, Tensor),
) {
    let (rows, hd) = (op.cell.rows(), op.cell.cols() / 2);
    let tracked = |v: usize| nodes[v].tracked;
    let (vx, vs) = (&nodes[op.x].value, &nodes[op.state].value);
    let vm = nodes[op.mask].value.data();
    let mut gates = Tensor::zeros(rows, 4 * hd);
    // `[∂h_old | ∂c_old]`; the h half gets its `h·Wh` term below.
    let mut g_state = tracked(op.state).then(|| Tensor::zeros(rows, 2 * hd));
    for (r, &m) in vm.iter().enumerate() {
        let inv = one_minus(m);
        let (a, cl, old, gr) = (op.acts.row(r), op.cell.row(r), vs.row(r), g.row(r));
        let gg = gates.row_mut(r);
        for j in 0..hd {
            let (i, f, gv, o) = (a[j], a[hd + j], a[2 * hd + j], a[3 * hd + j]);
            let (tc, c_old) = (cl[hd + j], old[hd + j]);
            let (gh, gc) = (gr[j], gr[hd + j]);
            // mh = (o·tanh c)·m, then o·tanh c, then tanh; mc = c·m comes
            // first into c's gradient.
            let dnh = gh * m;
            let d_tanh = dnh * o * (1.0 - tc * tc);
            let dc = gc * m + d_tanh;
            gg[j] = dc * gv * (i * (1.0 - i)) + 0.0;
            gg[hd + j] = dc * c_old * (f * (1.0 - f)) + 0.0;
            gg[2 * hd + j] = dc * i * (1.0 - gv * gv) + 0.0;
            gg[3 * hd + j] = dnh * tc * (o * (1.0 - o)) + 0.0;
            if let Some(gs) = &mut g_state {
                let gs = gs.row_mut(r);
                gs[j] = gh * inv;
                gs[hd + j] = gc * inv + dc * f;
            }
        }
    }
    if tracked(op.b) {
        acc(
            op.b,
            if rows == 1 {
                gates.clone()
            } else {
                sum_rows(&gates)
            },
        );
    }
    if let Some(mut gs) = g_state {
        let from_wh = gates.matmul(&nodes[op.wh].value.transpose());
        for r in 0..rows {
            for (s, &t) in gs.row_mut(r)[..hd].iter_mut().zip(from_wh.row(r)) {
                *s += t;
            }
        }
        acc(op.state, gs);
    }
    if tracked(op.wh) {
        acc(op.wh, cols(vs, 0, hd).transpose().matmul(&gates));
    }
    if tracked(op.x) {
        acc(op.x, gates.matmul(&nodes[op.wx].value.transpose()));
    }
    if tracked(op.wx) {
        acc(op.wx, vx.transpose().matmul(&gates));
    }
}

/// The backward of [`Tape::gat_attend`]: node by node in descending
/// order, exactly as the per-node composition's nodes run in reverse. Each
/// node's gradients for `wh` and `s2` are summed per neighbour id (a
/// repeated id as `0.0 + g₁ + g₂ …`, as `select_rows` scatters), then
/// added into a zero-initialised accumulator, which is bit for bit the
/// per-node composition's sum of zero-padded `N×·` tensors: those sums
/// never hold `−0.0`, so the skipped `+ 0.0` terms change no bit.
fn gat_attend_backward(
    op: &GatAttend,
    g: &Tensor,
    nodes: &[Node],
    acc: &mut impl FnMut(usize, Tensor),
) {
    let vwh = &nodes[op.wh].value;
    let (n, width) = vwh.shape();
    let mut g_wh = Tensor::zeros(n, width);
    let (mut g_s1, mut g_s2) = (vec![0.0f32; n], vec![0.0f32; n]);
    // While node `i` runs, `slot[j]` is neighbour `j`'s row in the local
    // per-id sums; `distinct` lists those ids in first-seen order.
    let mut slot = vec![usize::MAX; n];
    let mut distinct = Vec::new();
    let (mut local_wh, mut local_s2, mut g_alpha) = (Vec::new(), Vec::new(), Vec::new());
    for i in (0..n).rev() {
        let (lo, hi) = (op.offsets[i], op.offsets[i + 1]);
        let (nbrs, alpha, logits) = (&op.ids[lo..hi], &op.alpha[lo..hi], &op.logits[lo..hi]);
        let g_i = g.row(i);
        distinct.clear();
        for &j in nbrs {
            if slot[j] == usize::MAX {
                slot[j] = distinct.len();
                distinct.push(j);
            }
        }
        // ∂/∂(wh rows) = αᵀ · g_i as `Tensor::matmul` computes it (a zero
        // weight skips its row), scattered per id.
        local_wh.clear();
        local_wh.resize(distinct.len() * width, 0.0);
        for (&j, &a) in nbrs.iter().zip(alpha) {
            let s = slot[j] * width;
            for (l, &gv) in local_wh[s..s + width].iter_mut().zip(g_i) {
                *l += if a == 0.0 { 0.0 } else { 0.0 + a * gv };
            }
        }
        // ∂/∂α = g_i · (wh rows)ᵀ as `Tensor::matmul` computes it: per
        // weight, over the output columns in order, skipping zero upstream
        // entries.
        g_alpha.clear();
        g_alpha.extend(nbrs.iter().map(|&j| {
            let mut s = 0.0;
            for (&gv, &w) in g_i.iter().zip(vwh.row(j)) {
                if gv != 0.0 {
                    s += gv * w;
                }
            }
            s
        }));
        // Softmax, then leaky-ReLU backward; `s1_i` takes the sum over the
        // row, `s2` the per-id sums.
        let dot: f32 = g_alpha.iter().zip(alpha).map(|(&g, &y)| g * y).sum();
        let mut s1_sum = 0.0;
        local_s2.clear();
        local_s2.resize(distinct.len(), 0.0);
        for (((&j, &y), &x), &ga) in nbrs.iter().zip(alpha).zip(logits).zip(&g_alpha) {
            let g_pre = leaky_relu_grad(y * (ga - dot), x, GAT_SLOPE);
            s1_sum += g_pre;
            local_s2[slot[j]] += g_pre;
        }
        g_s1[i] += s1_sum;
        for (s, &j) in distinct.iter().enumerate() {
            for (o, &l) in g_wh.row_mut(j).iter_mut().zip(&local_wh[s * width..]) {
                *o += l;
            }
            g_s2[j] += local_s2[s];
            slot[j] = usize::MAX;
        }
    }
    let tracked = |v: usize| nodes[v].tracked;
    if tracked(op.wh) {
        acc(op.wh, g_wh);
    }
    if tracked(op.s1) {
        acc(op.s1, Tensor::from_vec(n, 1, g_s1));
    }
    if tracked(op.s2) {
        acc(op.s2, Tensor::from_vec(n, 1, g_s2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite-difference gradient of `f` w.r.t. a single input
    /// tensor, compared against the tape gradient.
    fn gradcheck(input: Tensor, build: impl Fn(&mut Tape, Var) -> Var, tol: f32) {
        // Analytic gradient.
        let mut tape = Tape::new();
        let x = tape.constant(input.clone());
        let out = build(&mut tape, x);
        let loss = tape.sum_all(out);
        tape.backward(loss);
        let analytic = tape.grad(x);

        // Numeric gradient.
        let eps = 3e-3f32;
        let (r, c) = input.shape();
        for rr in 0..r {
            for cc in 0..c {
                let mut plus = input.clone();
                plus.set(rr, cc, plus.get(rr, cc) + eps);
                let mut minus = input.clone();
                minus.set(rr, cc, minus.get(rr, cc) - eps);
                let f_at = |t: Tensor| {
                    let mut tape = Tape::new();
                    let x = tape.constant(t);
                    let out = build(&mut tape, x);
                    let loss = tape.sum_all(out);
                    tape.value(loss).item()
                };
                let num = (f_at(plus) - f_at(minus)) / (2.0 * eps);
                let ana = analytic.get(rr, cc);
                assert!(
                    (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                    "grad mismatch at ({rr},{cc}): numeric={num} analytic={ana}"
                );
            }
        }
    }

    fn sample() -> Tensor {
        Tensor::from_vec(2, 3, vec![0.5, -1.2, 0.3, 1.7, -0.4, 0.9])
    }

    #[test]
    fn grad_unary_chain() {
        gradcheck(sample(), |t, x| t.tanh(x), 1e-2);
        gradcheck(sample(), |t, x| t.sigmoid(x), 1e-2);
        gradcheck(sample(), |t, x| t.square(x), 1e-2);
        gradcheck(sample(), |t, x| t.cosh(x), 1e-2);
        gradcheck(sample(), |t, x| t.sinh(x), 1e-2);
        gradcheck(sample(), |t, x| t.softplus(x), 1e-2);
        gradcheck(sample(), |t, x| t.scale(x, -2.5), 1e-2);
        gradcheck(sample(), |t, x| t.add_const(x, 3.0), 1e-2);
    }

    #[test]
    fn grad_positive_domain_ops() {
        let pos = Tensor::from_vec(2, 2, vec![0.5, 1.2, 2.3, 0.7]);
        gradcheck(pos.clone(), |t, x| t.sqrt(x), 1e-2);
        gradcheck(pos, |t, x| t.powf(x, 1.7), 1e-2);
    }

    #[test]
    fn grad_abs_and_leaky_relu_away_from_kink() {
        let x = Tensor::from_vec(1, 4, vec![0.8, -0.9, 1.5, -2.0]);
        gradcheck(x.clone(), |t, v| t.abs(v), 1e-2);
        gradcheck(x, |t, v| t.leaky_relu(v, 0.1), 1e-2);
    }

    #[test]
    fn grad_binary_same_shape() {
        let b = Tensor::from_vec(2, 3, vec![1.1, 0.4, -0.7, 0.2, 2.0, -1.0]);
        for op in ["add", "sub", "mul", "div"] {
            let b = b.clone();
            gradcheck(
                sample(),
                move |t, x| {
                    let bv = t.constant(b.clone());
                    match op {
                        "add" => t.add(x, bv),
                        "sub" => t.sub(x, bv),
                        "mul" => t.mul(x, bv),
                        _ => t.div(x, bv),
                    }
                },
                1e-2,
            );
        }
    }

    #[test]
    fn grad_broadcast_rhs() {
        // Gradient w.r.t. the broadcast RHS: row vector, col vector, scalar.
        for shape in [(1usize, 3usize), (2, 1), (1, 1)] {
            let rhs = Tensor::full(shape.0, shape.1, 0.7);
            gradcheck(
                rhs,
                |t, b| {
                    let a = t.constant(sample());
                    let m = t.mul(a, b);
                    t.add(m, b)
                },
                1e-2,
            );
        }
    }

    #[test]
    fn grad_matmul_both_sides() {
        let a = Tensor::from_vec(2, 3, vec![0.5, -1.0, 0.3, 0.8, 0.1, -0.6]);
        let b = Tensor::from_vec(3, 2, vec![1.0, 0.2, -0.4, 0.9, 0.3, -1.1]);
        {
            let b = b.clone();
            gradcheck(
                a.clone(),
                move |t, x| {
                    let bv = t.constant(b.clone());
                    t.matmul(x, bv)
                },
                1e-2,
            );
        }
        gradcheck(
            b,
            move |t, x| {
                let av = t.constant(a.clone());
                t.matmul(av, x)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_reductions_and_shapes() {
        gradcheck(sample(), |t, x| t.row_sum(x), 1e-2);
        gradcheck(sample(), |t, x| t.mean_all(x), 1e-2);
        gradcheck(sample(), |t, x| t.transpose(x), 1e-2);
        gradcheck(sample(), |t, x| t.slice_cols(x, 1, 3), 1e-2);
        gradcheck(
            sample(),
            |t, x| {
                let other = t.constant(Tensor::full(2, 2, 0.3));
                t.concat_cols(x, other)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_softmax() {
        // Softmax + weighting so the loss isn't constant (softmax rows sum
        // to 1, so sum_all alone has zero gradient).
        let w = Tensor::from_vec(2, 3, vec![0.1, 0.9, -0.3, 0.5, -0.2, 0.7]);
        gradcheck(
            sample(),
            move |t, x| {
                let s = t.softmax_rows(x);
                let wv = t.constant(w.clone());
                t.mul(s, wv)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_select_and_stack() {
        let table = Tensor::from_vec(4, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]);
        gradcheck(
            table,
            |t, x| t.select_rows(x, &[2, 0, 2]), // repeated id → accumulation
            1e-2,
        );
        gradcheck(
            Tensor::from_vec(1, 3, vec![0.5, -0.5, 1.0]),
            |t, x| {
                let y = t.scale(x, 2.0);
                t.stack_rows(&[x, y])
            },
            1e-2,
        );
    }

    #[test]
    fn grad_lorentz_and_rowdot() {
        let b = Tensor::from_vec(2, 3, vec![1.3, 0.2, -0.5, 0.9, -0.1, 0.8]);
        {
            let b = b.clone();
            gradcheck(
                sample(),
                move |t, x| {
                    let bv = t.constant(b.clone());
                    t.lorentz_inner(x, bv)
                },
                1e-2,
            );
        }
        gradcheck(
            sample(),
            move |t, x| {
                let bv = t.constant(b.clone());
                t.row_dot(x, bv)
            },
            1e-2,
        );
    }

    #[test]
    fn grad_gat_attend() {
        // Node 0 has only its self-loop, node 1 is a hub, node 2 lists
        // node 3 twice. Every logit s1_i + s2_j stays ≥ 0.2 away from the
        // leaky ReLU's kink under the ±3e-3 probes.
        let graph = vec![vec![0], vec![1, 0, 2, 3], vec![2, 3, 3], vec![3, 1]];
        let wh = Tensor::from_vec(4, 2, vec![0.5, -1.2, 0.3, 1.7, -0.4, 0.9, 1.1, -0.6]);
        let s1 = Tensor::from_vec(4, 1, vec![0.5, -0.9, 0.3, 1.1]);
        let s2 = Tensor::from_vec(4, 1, vec![0.2, -0.4, 0.7, -1.3]);
        let r = Tensor::from_vec(4, 2, vec![0.7, -1.1, 0.4, 0.9, -0.8, 1.3, 0.6, 0.2]);
        let weighted = |t: &mut Tape, out: Var| {
            let rv = t.constant(r.clone());
            t.mul(out, rv)
        };
        gradcheck(
            wh.clone(),
            |t, x| {
                let (a, b) = (t.constant(s1.clone()), t.constant(s2.clone()));
                let out = t.gat_attend(x, a, b, &graph);
                weighted(t, out)
            },
            1e-2,
        );
        gradcheck(
            s1.clone(),
            |t, x| {
                let (w, b) = (t.constant(wh.clone()), t.constant(s2.clone()));
                let out = t.gat_attend(w, x, b, &graph);
                weighted(t, out)
            },
            1e-2,
        );
        gradcheck(
            s2.clone(),
            |t, x| {
                let (w, a) = (t.constant(wh.clone()), t.constant(s1.clone()));
                let out = t.gat_attend(w, a, x, &graph);
                weighted(t, out)
            },
            1e-2,
        );
    }

    #[test]
    fn data_leaves_are_not_differentiated() {
        let mut tape = Tape::new();
        let d = tape.input(Tensor::from_vec(1, 3, vec![0.5, -1.0, 2.0]));
        let p = tape.constant(Tensor::from_vec(1, 3, vec![1.5, 0.25, -0.5]));
        // A chain of data-only nodes: nothing in it can reach `p`.
        let e = tape.tanh(d);
        let e = tape.scale(e, 3.0);
        let e = tape.add(e, d);
        let f = tape.mul(e, p);
        let loss = tape.sum_all(f);
        tape.backward(loss);
        assert_eq!(tape.grad(d), Tensor::zeros(1, 3));
        assert_eq!(tape.grad(p), tape.value(e).clone());
        // Only `f` and `loss` descend from a differentiated leaf: `loss`
        // hands `f` its gradient, `f` hands `p` its own.
        assert_eq!(tape.backward_terms(), 2);
        // Interior gradients are dropped once propagated.
        assert_eq!(tape.grad(f), Tensor::zeros(1, 3));
    }

    #[test]
    fn data_inputs_leave_parameter_gradients_bit_identical() {
        use crate::layers::{sequence_masks, Linear, LstmCell};
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let lstm = LstmCell::new("lstm", 2, 3, &mut store, &mut rng);
        let head = Linear::new("head", 3, 2, &mut store, &mut rng);
        let steps: Vec<Tensor> = (0..4)
            .map(|_| Tensor::uniform(2, 2, 1.0, &mut rng))
            .collect();
        let target = Tensor::uniform(2, 2, 1.0, &mut rng);
        let run = |as_data: bool| {
            let mut tape = Tape::new();
            let leaf = |tape: &mut Tape, t: &Tensor| {
                if as_data {
                    tape.input(t.clone())
                } else {
                    tape.constant(t.clone())
                }
            };
            let xs: Vec<Var> = steps.iter().map(|t| leaf(&mut tape, t)).collect();
            let masks = sequence_masks(&mut tape, &[4, 2], 4);
            let h = lstm.forward_sequence(&mut tape, &store, &xs, &masks);
            let y = head.forward(&mut tape, &store, h);
            let t = leaf(&mut tape, &target);
            let d = tape.sub(y, t);
            let sq = tape.square(d);
            let loss = tape.sum_all(sq);
            tape.backward(loss);
            let mut bits = vec![tape.value(loss).item().to_bits()];
            for (_, v) in tape.watched() {
                bits.extend(tape.grad(*v).data().iter().map(|g| g.to_bits()));
            }
            (bits, tape.backward_terms())
        };
        let ((constant, terms_constant), (data, terms_data)) = (run(false), run(true));
        assert_eq!(constant, data);
        // With data leaves the fused steps skip exactly the terms that
        // would have reached them: one per step for `x`, and the target's
        // one.
        let steps = 4;
        let skipped = steps + 1;
        assert_eq!(
            terms_constant - terms_data,
            skipped,
            "{terms_data} vs {terms_constant}"
        );
    }

    /// Six random `lstm_step` inputs: `x (3×2)`, `[h | c] (3×4)`, a mask
    /// with a padded row and a fractional weight, `wx`, `wh`, `b` (H = 2).
    fn lstm_inputs() -> [Tensor; 6] {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        [
            Tensor::uniform(3, 2, 1.0, &mut rng),
            Tensor::uniform(3, 4, 1.0, &mut rng),
            Tensor::from_vec(3, 1, vec![1.0, 0.0, 0.6]),
            Tensor::uniform(2, 8, 0.8, &mut rng),
            Tensor::uniform(2, 8, 0.8, &mut rng),
            Tensor::uniform(1, 8, 0.5, &mut rng),
        ]
    }

    #[test]
    fn grad_lstm_step() {
        let inputs = lstm_inputs();
        let r = Tensor::from_vec(3, 4, (0..12).map(|k| 0.3 + 0.1 * k as f32).collect());
        // Both halves read, then only `h` (the last step of a sequence).
        // Every input but the mask, which is data.
        for to in [4, 2] {
            for k in [0, 1, 3, 4, 5] {
                gradcheck(
                    inputs[k].clone(),
                    |t, v| {
                        let vars: Vec<Var> = (0..6)
                            .map(|j| match j {
                                _ if j == k => v,
                                2 => t.input(inputs[j].clone()),
                                _ => t.constant(inputs[j].clone()),
                            })
                            .collect();
                        let out = t.lstm_step(vars[0], vars[1], vars[2], vars[3], vars[4], vars[5]);
                        let read = t.slice_cols(out, 0, to);
                        let rv = t.constant(cols(&r, 0, to));
                        t.mul(read, rv)
                    },
                    1e-2,
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "the mask must be data")]
    fn lstm_step_rejects_a_tracked_mask() {
        let mut tape = Tape::new();
        let [x, state, mask, wx, wh, b] = lstm_inputs().map(|t| tape.constant(t));
        let _ = tape.lstm_step(x, state, mask, wx, wh, b);
    }

    /// Child `i` of the fork tests: data row `i` through the shared `w`
    /// once (one term each) and through its own `u{i}` twice.
    fn fork_child(tape: &mut Tape, store: &ParamStore, data: &Tensor, i: usize) -> Var {
        let x = tape.input(Tensor::from_vec(1, data.cols(), data.row(i).to_vec()));
        let w = tape.watch(store, "w");
        let u = tape.watch(store, &format!("u{i}"));
        let xw = tape.matmul(x, w);
        let a = tape.tanh(xw);
        let b = tape.mul(a, u);
        let c = tape.mul(b, u);
        tape.add(c, a)
    }

    /// The parent's part: `v` after the children, and `w` once more.
    fn fork_loss(tape: &mut Tape, store: &ParamStore, rows: &[Var]) -> Var {
        let s = tape.stack_rows(rows);
        let v = tape.watch(store, "v");
        let y = tape.matmul(s, v);
        let sq = tape.square(y);
        let l = tape.sum_all(sq);
        let w = tape.watch(store, "w");
        let wsq = tape.square(w);
        let ws = tape.sum_all(wsq);
        tape.add(l, ws)
    }

    fn fork_store(children: usize) -> (ParamStore, Tensor) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let mut store = ParamStore::new();
        store.insert("w", Tensor::uniform(3, 4, 1.0, &mut rng));
        store.insert("v", Tensor::uniform(4, 1, 1.0, &mut rng));
        for i in 0..children {
            store.insert(format!("u{i}"), Tensor::uniform(1, 4, 1.5, &mut rng));
        }
        (store, Tensor::uniform(children, 3, 2.0, &mut rng))
    }

    /// Loss bits, then every watched parameter's name and gradient bits.
    fn trained_bits(tape: &Tape, loss: Var) -> Vec<(String, Vec<u32>)> {
        let mut out = vec![("loss".into(), vec![tape.value(loss).item().to_bits()])];
        for (name, v) in tape.watched() {
            let g = tape.grad(*v);
            out.push((name.clone(), g.data().iter().map(|x| x.to_bits()).collect()));
        }
        out
    }

    #[test]
    fn fork_matches_one_tape_bit_for_bit() {
        let n = 6;
        let (store, data) = fork_store(n);
        let mut one = Tape::new();
        let rows: Vec<Var> = (0..n)
            .map(|i| fork_child(&mut one, &store, &data, i))
            .collect();
        let loss = fork_loss(&mut one, &store, &rows);
        one.backward(loss);
        let expected = trained_bits(&one, loss);
        assert_eq!(expected.len(), 1 + 2 + n, "loss, w, every u, v");
        for threads in [1, 2] {
            let mut tape = Tape::new();
            let rows = tape.fork_on(threads, &store, n, |child, i| {
                fork_child(child, &store, &data, i)
            });
            let loss = fork_loss(&mut tape, &store, &rows);
            tape.backward(loss);
            assert_eq!(trained_bits(&tape, loss), expected, "{threads} workers");
        }
    }

    /// The shape of a fused TrajGAT model's batch: child 0 forks again,
    /// one grandchild per row, whose shared `w` only child 0 touches;
    /// child 1 touches only `v`.
    #[test]
    fn nested_forks_match_one_tape_and_run_inline() {
        let n = 5;
        let (store, data) = fork_store(n);
        let rows = |tape: &mut Tape, nested: bool| {
            let rows: Vec<Var> = if nested {
                assert_eq!(fork_threads(), 1, "a worker's fork runs inline");
                tape.fork(&store, n, |child, i| fork_child(child, &store, &data, i))
            } else {
                (0..n).map(|i| fork_child(tape, &store, &data, i)).collect()
            };
            tape.stack_rows(&rows)
        };
        let column = |tape: &mut Tape| {
            let v = tape.watch(&store, "v");
            tape.tanh(v)
        };
        let loss = |tape: &mut Tape, s: Var, c: Var| {
            let y = tape.matmul(s, c);
            let sq = tape.square(y);
            tape.sum_all(sq)
        };
        let mut one = Tape::new();
        let (s, c) = (rows(&mut one, false), column(&mut one));
        let l = loss(&mut one, s, c);
        one.backward(l);
        let mut tape = Tape::new();
        let outs = tape.fork_on(2, &store, 2, |child, k| match k {
            0 => rows(child, true),
            _ => column(child),
        });
        let l_forked = loss(&mut tape, outs[0], outs[1]);
        tape.backward(l_forked);
        assert_eq!(trained_bits(&tape, l_forked), trained_bits(&one, l));
    }

    #[test]
    fn fork_join_keeps_item_order_and_propagates_panics() {
        let squares = fork_join(2, (0..37).collect(), |i: u64| i * i);
        assert_eq!(squares, (0..37).map(|i| i * i).collect::<Vec<_>>());
        let caught = std::panic::catch_unwind(|| {
            fork_join(2, vec![1, 2, 3], |i: i32| {
                assert!(i != 2, "item two fails");
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn grad_accumulates_on_reuse() {
        // x used twice: grad must sum both paths. f = sum(x·x + x) →
        // df/dx = 2x + 1.
        let x = Tensor::from_vec(1, 2, vec![1.5, -0.5]);
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let sq = tape.mul(xv, xv);
        let s = tape.add(sq, xv);
        let loss = tape.sum_all(s);
        tape.backward(loss);
        let g = tape.grad(xv);
        assert!((g.get(0, 0) - 4.0).abs() < 1e-5);
        assert!((g.get(0, 1) - 0.0).abs() < 1e-5);
    }

    #[test]
    fn watch_dedupes_by_name() {
        let mut store = ParamStore::new();
        store.insert("w", Tensor::scalar(2.0));
        let mut tape = Tape::new();
        let a = tape.watch(&store, "w");
        let b = tape.watch(&store, "w");
        assert_eq!(a, b);
        assert_eq!(tape.watched().len(), 1);
    }

    #[test]
    fn lorentz_inner_value() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::from_vec(1, 3, vec![2.0, 1.0, 1.0]));
        let b = tape.constant(Tensor::from_vec(1, 3, vec![3.0, 0.0, 2.0]));
        let i = tape.lorentz_inner(a, b);
        assert_eq!(tape.value(i).item(), -4.0);
    }

    #[test]
    #[should_panic(expected = "backward requires a scalar loss")]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(2, 2));
        tape.backward(x);
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn bad_broadcast_panics() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::zeros(2, 3));
        let b = tape.constant(Tensor::zeros(3, 2));
        let _ = tape.add(a, b);
    }
}
