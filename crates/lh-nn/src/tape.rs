//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] is an append-only arena of nodes; every operation records its
//! parents and enough metadata to run the chain rule backwards. Parameters
//! enter via [`Tape::watch`], which clones the current value out of a
//! [`crate::params::ParamStore`] and registers the node under the parameter
//! name so optimizers can collect gradients after [`Tape::backward`].
//!
//! Shapes are strictly 2-D (`rows × cols`). Binary elementwise ops support
//! right-hand broadcast of a row vector (`1×n`), a column vector (`m×1`),
//! or a scalar (`1×1`) against an `m×n` left operand — the only patterns
//! the models need — with gradients reduced back to the broadcast shape.
//! The four of them share one forward loop.
//!
//! Every unary elementwise op (`tanh`, `sqrt`, `cosh`, …) is one `Op`
//! variant carrying a private `Unary` that knows the op's value at `x` and
//! the gradient it carries back given `x` and `y = f(x)`, so the forward
//! pass and `backward` each have a single elementwise path for all of them.
//!
//! Every op's gradient is verified against central finite differences in
//! this module's tests; the workspace's `tests/property_based.rs`
//! (`autodiff_matches_finite_differences`) repeats the check on random
//! inputs.

use crate::params::ParamStore;
use crate::tensor::Tensor;

/// Handle to a node in a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    /// Arena index (for diagnostics).
    pub fn id(&self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
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
}

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
            Unary::Sigmoid => x.map(|x| 1.0 / (1.0 + (-x).exp())),
            Unary::LeakyRelu(alpha) => x.map(|x| if x >= 0.0 { x } else { alpha * x }),
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
            Unary::LeakyRelu(alpha) => {
                chain(g, x, y, |g, x, _| if x < 0.0 { g * alpha } else { g })
            }
            Unary::Sqrt => chain(g, x, y, |g, _, y| g * (0.5 / y.max(1e-12))),
            Unary::Cosh => chain(g, x, y, |g, x, _| g * x.sinh()),
            Unary::Sinh => chain(g, x, y, |g, x, _| g * x.cosh()),
            Unary::Abs => chain(g, x, y, |g, x, _| g * x.signum()),
            Unary::Square => chain(g, x, y, |g, x, _| g * (2.0 * x)),
            Unary::Softplus => chain(g, x, y, |g, x, _| g * (1.0 / (1.0 + (-x).exp()))),
        }
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
}

/// The autodiff graph. Create one per forward/backward pass.
pub struct Tape {
    nodes: Vec<Node>,
    grads: Vec<Option<Tensor>>,
    watched: Vec<(String, Var)>,
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

#[inline]
fn bcast_get(t: &Tensor, r: usize, c: usize) -> f32 {
    let (br, bc) = t.shape();
    t.get(if br == 1 { 0 } else { r }, if bc == 1 { 0 } else { c })
}

/// Sums `grad` (shaped like the broadcast output) down to `shape`.
fn reduce_to_shape(grad: &Tensor, shape: (usize, usize)) -> Tensor {
    if grad.shape() == shape {
        return grad.clone();
    }
    let mut out = Tensor::zeros(shape.0, shape.1);
    for r in 0..grad.rows() {
        for c in 0..grad.cols() {
            let tr = if shape.0 == 1 { 0 } else { r };
            let tc = if shape.1 == 1 { 0 } else { c };
            let v = out.get(tr, tc) + grad.get(r, c);
            out.set(tr, tc, v);
        }
    }
    out
}

impl Tape {
    /// Empty tape.
    pub fn new() -> Self {
        Tape {
            nodes: Vec::with_capacity(256),
            grads: Vec::new(),
            watched: Vec::new(),
        }
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push(Node { value, op });
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

    /// Inserts a constant (non-parameter) input.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Inserts a named parameter from the store; repeated watches of the
    /// same name return the same node so gradients accumulate correctly.
    pub fn watch(&mut self, store: &ParamStore, name: &str) -> Var {
        if let Some((_, var)) = self.watched.iter().find(|(n, _)| n == name) {
            return *var;
        }
        let v = self.push(store.get(name).clone(), Op::Leaf);
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

    /// Gradient of a node after [`Tape::backward`]; zeros if the node did
    /// not influence the loss.
    pub fn grad(&self, v: Var) -> Tensor {
        match &self.grads.get(v.0) {
            Some(Some(g)) => g.clone(),
            _ => {
                let (r, c) = self.nodes[v.0].value.shape();
                Tensor::zeros(r, c)
            }
        }
    }

    fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    // ---- binary ops -----------------------------------------------------

    /// The one forward loop of the broadcast binary ops: `f(a, b)` per
    /// element of `a`, with `b` broadcast against it.
    fn binary(&mut self, a: Var, b: Var, f: impl Fn(f32, f32) -> f32, op: Op) -> Var {
        broadcast_check(self.shape(a), self.shape(b));
        let (ar, ac) = self.shape(a);
        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let mut out = Tensor::zeros(ar, ac);
        for r in 0..ar {
            for c in 0..ac {
                out.set(r, c, f(va.get(r, c), bcast_get(vb, r, c)));
            }
        }
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

    // ---- backward -------------------------------------------------------

    fn accumulate(&mut self, node: usize, grad: Tensor) {
        match &mut self.grads[node] {
            Some(g) => g.add_assign(&grad),
            slot @ None => *slot = Some(grad),
        }
    }

    /// Runs reverse-mode differentiation from scalar `loss` (`1×1`).
    /// Gradients of all ancestors become available through [`Tape::grad`].
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.shape(loss), (1, 1), "backward requires a scalar loss");
        self.grads = (0..self.nodes.len()).map(|_| None).collect();
        self.grads[loss.0] = Some(Tensor::scalar(1.0));

        for i in (0..self.nodes.len()).rev() {
            let Some(g) = self.grads[i].clone() else {
                continue;
            };
            // Clone op metadata to appease the borrow checker; ops are tiny.
            let op = self.nodes[i].op.clone();
            match op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    let sb = self.nodes[b].value.shape();
                    self.accumulate(a, g.clone());
                    self.accumulate(b, reduce_to_shape(&g, sb));
                }
                Op::Sub(a, b) => {
                    let sb = self.nodes[b].value.shape();
                    self.accumulate(a, g.clone());
                    let neg = g.map(|v| -v);
                    self.accumulate(b, reduce_to_shape(&neg, sb));
                }
                Op::Mul(a, b) => {
                    let (ar, ac) = self.nodes[a].value.shape();
                    let sb = self.nodes[b].value.shape();
                    let mut ga = Tensor::zeros(ar, ac);
                    let mut gb_full = Tensor::zeros(ar, ac);
                    for r in 0..ar {
                        for c in 0..ac {
                            let av = self.nodes[a].value.get(r, c);
                            let bv = bcast_get(&self.nodes[b].value, r, c);
                            ga.set(r, c, g.get(r, c) * bv);
                            gb_full.set(r, c, g.get(r, c) * av);
                        }
                    }
                    self.accumulate(a, ga);
                    self.accumulate(b, reduce_to_shape(&gb_full, sb));
                }
                Op::Div(a, b) => {
                    let (ar, ac) = self.nodes[a].value.shape();
                    let sb = self.nodes[b].value.shape();
                    let mut ga = Tensor::zeros(ar, ac);
                    let mut gb_full = Tensor::zeros(ar, ac);
                    for r in 0..ar {
                        for c in 0..ac {
                            let av = self.nodes[a].value.get(r, c);
                            let bv = bcast_get(&self.nodes[b].value, r, c);
                            ga.set(r, c, g.get(r, c) / bv);
                            gb_full.set(r, c, -g.get(r, c) * av / (bv * bv));
                        }
                    }
                    self.accumulate(a, ga);
                    self.accumulate(b, reduce_to_shape(&gb_full, sb));
                }
                Op::Matmul(a, b) => {
                    let bt = self.nodes[b].value.transpose();
                    let at = self.nodes[a].value.transpose();
                    self.accumulate(a, g.matmul(&bt));
                    self.accumulate(b, at.matmul(&g));
                }
                Op::Unary(a, f) => {
                    let mut ga = g;
                    f.grad(&mut ga, &self.nodes[a].value, &self.nodes[i].value);
                    self.accumulate(a, ga);
                }
                Op::SumAll(a) => {
                    let (r, c) = self.nodes[a].value.shape();
                    self.accumulate(a, Tensor::full(r, c, g.item()));
                }
                Op::MeanAll(a) => {
                    let (r, c) = self.nodes[a].value.shape();
                    let scale = g.item() / (r * c).max(1) as f32;
                    self.accumulate(a, Tensor::full(r, c, scale));
                }
                Op::RowSum(a) => {
                    let (r, c) = self.nodes[a].value.shape();
                    let mut ga = Tensor::zeros(r, c);
                    for rr in 0..r {
                        let gv = g.get(rr, 0);
                        for cc in 0..c {
                            ga.set(rr, cc, gv);
                        }
                    }
                    self.accumulate(a, ga);
                }
                Op::SoftmaxRows(a) => {
                    let y = self.nodes[i].value.clone();
                    let (r, c) = y.shape();
                    let mut ga = Tensor::zeros(r, c);
                    for rr in 0..r {
                        let dot: f32 = (0..c).map(|cc| g.get(rr, cc) * y.get(rr, cc)).sum();
                        for cc in 0..c {
                            ga.set(rr, cc, y.get(rr, cc) * (g.get(rr, cc) - dot));
                        }
                    }
                    self.accumulate(a, ga);
                }
                Op::ConcatCols(a, b) => {
                    let ca = self.nodes[a].value.cols();
                    let cb = self.nodes[b].value.cols();
                    let rows = g.rows();
                    let mut ga = Tensor::zeros(rows, ca);
                    let mut gb = Tensor::zeros(rows, cb);
                    for r in 0..rows {
                        ga.row_mut(r).copy_from_slice(&g.row(r)[..ca]);
                        gb.row_mut(r).copy_from_slice(&g.row(r)[ca..]);
                    }
                    self.accumulate(a, ga);
                    self.accumulate(b, gb);
                }
                Op::SliceCols(a, from, _to) => {
                    let (r, c) = self.nodes[a].value.shape();
                    let mut ga = Tensor::zeros(r, c);
                    for rr in 0..r {
                        ga.row_mut(rr)[from..from + g.cols()].copy_from_slice(g.row(rr));
                    }
                    self.accumulate(a, ga);
                }
                Op::Transpose(a) => self.accumulate(a, g.transpose()),
                Op::SelectRows(a, ids) => {
                    let (r, c) = self.nodes[a].value.shape();
                    let mut ga = Tensor::zeros(r, c);
                    for (row, &id) in ids.iter().enumerate() {
                        for cc in 0..c {
                            let v = ga.get(id, cc) + g.get(row, cc);
                            ga.set(id, cc, v);
                        }
                    }
                    self.accumulate(a, ga);
                }
                Op::StackRows(ids) => {
                    for (row, &id) in ids.iter().enumerate() {
                        let mut gr = Tensor::zeros(1, g.cols());
                        gr.row_mut(0).copy_from_slice(g.row(row));
                        self.accumulate(id, gr);
                    }
                }
                Op::LorentzInner(a, b) => {
                    let (r, c) = self.nodes[a].value.shape();
                    let mut ga = Tensor::zeros(r, c);
                    let mut gb = Tensor::zeros(r, c);
                    for rr in 0..r {
                        let gv = g.get(rr, 0);
                        // ∂⟨a,b⟩/∂a = (−b₀, b₁, …); symmetric for b.
                        ga.set(rr, 0, -gv * self.nodes[b].value.get(rr, 0));
                        gb.set(rr, 0, -gv * self.nodes[a].value.get(rr, 0));
                        for cc in 1..c {
                            ga.set(rr, cc, gv * self.nodes[b].value.get(rr, cc));
                            gb.set(rr, cc, gv * self.nodes[a].value.get(rr, cc));
                        }
                    }
                    self.accumulate(a, ga);
                    self.accumulate(b, gb);
                }
                Op::RowDot(a, b) => {
                    let (r, c) = self.nodes[a].value.shape();
                    let mut ga = Tensor::zeros(r, c);
                    let mut gb = Tensor::zeros(r, c);
                    for rr in 0..r {
                        let gv = g.get(rr, 0);
                        for cc in 0..c {
                            ga.set(rr, cc, gv * self.nodes[b].value.get(rr, cc));
                            gb.set(rr, cc, gv * self.nodes[a].value.get(rr, cc));
                        }
                    }
                    self.accumulate(a, ga);
                    self.accumulate(b, gb);
                }
            }
        }
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
