//! Basis kernels for the revised simplex: a sparse LU backend for large
//! bases and a dense explicit-inverse backend for small ones.
//!
//! The simplex keeps its basis `B` (one column per constraint row) as a
//! [`Basis`]. Above [`DENSE_MAX`] rows that is a sparse LU factorization
//! refreshed periodically, plus a chain of **product-form eta updates**
//! applied at every pivot in between; at or below it, a dense explicit
//! inverse updated in place (see [`DENSE_MAX`] for the break-even). The
//! sparse solve kernels work on dense scratch vectors but skip zero
//! regions, so their cost is `O(nnz(L) + nnz(U) + nnz(etas))` — on the
//! paper's LP2 instances (a handful of nonzeros per column) that is
//! orders of magnitude below the dense `O(m²)` FTRAN/BTRAN they replace
//! at scale.
//!
//! * **Factorization** ([`SparseLu::factorize`]) is left-looking
//!   Gilbert–Peierls style: columns are eliminated in a Markowitz-flavoured
//!   static order (ascending column count), and within each column the
//!   pivot row is chosen among entries within a relative threshold of the
//!   column maximum ([`PIVOT_REL_TOL`]) as the one with the fewest basis
//!   nonzeros — sparsity-first pivoting bounded away from instability.
//! * **FTRAN** solves `B x = b` (row space → basis-position space),
//!   **BTRAN** solves `Bᵀ y = c` (position space → row space); both exploit
//!   sparse right-hand sides (the entering column, `e_r`, a sparse `c_B`)
//!   by short-circuiting every elimination step whose driving scalar is
//!   zero.
//! * **Updates** ([`Basis::update`]) append one sparse eta per pivot
//!   (the product form of the inverse, the classic alternative to
//!   Forrest–Tomlin with the same per-pivot sparsity); the chain is
//!   capped by [`Basis::should_refactorize`] so error and fill cannot
//!   accumulate unboundedly.
//!
//! Factors and etas live in flat CSR-style arrays (one allocation each,
//! `memcpy`-cheap to clone), which is what lets a warm-start snapshot
//! carry its factorization instead of re-factorizing on every reuse.
//!
//! The kernels are deterministic (no randomized orderings) and are
//! cross-checked against a dense Gauss–Jordan inverse by
//! `milp/tests/proptest_lu.rs`, including across long update chains and
//! forced refactorization boundaries.

/// Relative threshold for row pivoting inside a column: rows within this
/// factor of the column's largest magnitude are eligible, and the sparsest
/// eligible row wins. Larger values favour stability, smaller values
/// sparsity; 0.1 is the textbook compromise. This is the *initial* value;
/// [`Basis::tighten_pivot_tol`] raises it (towards partial pivoting) when
/// the simplex's accuracy monitor flags an unacceptable residual.
pub const PIVOT_REL_TOL: f64 = crate::tol::LU_PIVOT_REL;

/// Relative magnitude below which a pivot candidate is treated as zero
/// (the basis is declared singular when no column entry survives). Applied
/// relative to the largest magnitude in the basis columns, so singularity
/// detection is invariant under uniform rescaling of the basis.
pub const SINGULAR_TOL: f64 = crate::tol::LU_SINGULAR_REL;

/// Eta updates accepted before [`Basis::should_refactorize`] trips. Each
/// eta adds one sparse column to every subsequent FTRAN/BTRAN, so the cap
/// trades refactorization cost against solve cost; it also bounds the
/// round-off accumulated by the product form.
pub const MAX_ETAS: usize = 128;

/// The factorization (or an update) hit a numerically singular pivot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Singular;

impl std::fmt::Display for Singular {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "numerically singular basis")
    }
}

/// Sparse LU factorization of a basis matrix `B`: `B = Pᵣ⁻¹ L U P𝚌⁻¹` with
/// unit-lower-triangular `L` and upper-triangular `U`, both stored
/// column-wise (flat arrays) in elimination-step order.
#[derive(Debug, Clone)]
pub struct SparseLu {
    m: usize,
    /// Pivot row (original row index) of each elimination step.
    prow: Vec<u32>,
    /// Basis position whose column was eliminated at each step.
    pcol: Vec<u32>,
    /// `L` column extents: step `k` owns `lrow/lval[lptr[k]..lptr[k+1]]`,
    /// `(original row, multiplier)` over rows pivoted at later steps.
    lptr: Vec<u32>,
    lrow: Vec<u32>,
    lval: Vec<f64>,
    /// `U` column extents: step `k` owns `ustep/uval[uptr[k]..uptr[k+1]]`,
    /// `(earlier step j, u_jk)`.
    uptr: Vec<u32>,
    ustep: Vec<u32>,
    uval: Vec<f64>,
    /// `U` diagonal per step (the accepted pivots).
    udiag: Vec<f64>,
}

/// Reusable factorization workspace: every buffer
/// [`SparseLu::factorize_with`] needs, kept by the caller so repeated
/// refactorizations allocate nothing. (The one-shot
/// [`SparseLu::factorize`] creates a fresh one per call.)
#[derive(Debug, Default)]
pub struct FactorScratch {
    row_count: Vec<u32>,
    order: Vec<u32>,
    buckets: Vec<u32>,
    row_step: Vec<u32>,
    x: Vec<f64>,
    in_pattern: Vec<bool>,
    touched: Vec<u32>,
    reach: Vec<u32>,
    reached: Vec<bool>,
    dfs: Vec<u32>,
}

impl SparseLu {
    /// An empty factorization (dimension 0), used as the storage donor
    /// for the first [`SparseLu::factorize_with`] call.
    pub fn empty() -> SparseLu {
        SparseLu {
            m: 0,
            prow: Vec::new(),
            pcol: Vec::new(),
            lptr: Vec::new(),
            lrow: Vec::new(),
            lval: Vec::new(),
            uptr: Vec::new(),
            ustep: Vec::new(),
            uval: Vec::new(),
            udiag: Vec::new(),
        }
    }

    /// Factorizes the basis whose column at position `p` is
    /// `basis_cols[p]`, a sparse `(row, coefficient)` list with ascending
    /// rows. Returns [`Singular`] when elimination breaks down.
    pub fn factorize(m: usize, basis_cols: &[&[(u32, f64)]]) -> Result<SparseLu, Singular> {
        SparseLu::factorize_with(
            m,
            basis_cols,
            &mut FactorScratch::default(),
            SparseLu::empty(),
        )
    }

    /// [`SparseLu::factorize`] with caller-owned workspace and a storage
    /// donor (typically the superseded factorization), so the steady-state
    /// refactorization of a running simplex allocates nothing.
    pub fn factorize_with(
        m: usize,
        basis_cols: &[&[(u32, f64)]],
        scratch: &mut FactorScratch,
        reuse: SparseLu,
    ) -> Result<SparseLu, Singular> {
        SparseLu::factorize_tol(m, basis_cols, scratch, reuse, PIVOT_REL_TOL)
    }

    /// [`SparseLu::factorize_with`] with an explicit Markowitz-style
    /// relative pivot threshold (the fraction of the column maximum a
    /// candidate must reach to be eligible). [`Basis`] threads its
    /// adaptive threshold through here on every refactorization.
    fn factorize_tol(
        m: usize,
        basis_cols: &[&[(u32, f64)]],
        scratch: &mut FactorScratch,
        reuse: SparseLu,
        pivot_rel_tol: f64,
    ) -> Result<SparseLu, Singular> {
        assert_eq!(basis_cols.len(), m, "basis must have one column per row");
        // Static Markowitz data: nonzeros per row across the basis.
        let row_count = &mut scratch.row_count;
        row_count.clear();
        row_count.resize(m, 0);
        let mut max_len = 0usize;
        let mut bmax = 0.0f64;
        for col in basis_cols {
            max_len = max_len.max(col.len());
            for &(r, a) in *col {
                row_count[r as usize] += 1;
                bmax = bmax.max(a.abs());
            }
        }
        // Scale-relative singularity threshold: invariant under uniform
        // rescaling of the basis columns.
        let singular = SINGULAR_TOL * bmax.max(1.0);
        // Markowitz-flavoured column order: sparsest columns first, ties
        // by position — a counting sort (lengths are small) keeps this
        // O(m) and deterministic.
        let buckets = &mut scratch.buckets;
        buckets.clear();
        buckets.resize(max_len + 2, 0);
        for col in basis_cols {
            buckets[col.len() + 1] += 1;
        }
        for b in 1..buckets.len() {
            buckets[b] += buckets[b - 1];
        }
        let order = &mut scratch.order;
        order.clear();
        order.resize(m, 0);
        for (p, col) in basis_cols.iter().enumerate() {
            let slot = &mut buckets[col.len()];
            order[*slot as usize] = p as u32;
            *slot += 1;
        }

        let mut lu = reuse;
        lu.m = m;
        lu.prow.clear();
        lu.pcol.clear();
        lu.lptr.clear();
        lu.lrow.clear();
        lu.lval.clear();
        lu.uptr.clear();
        lu.ustep.clear();
        lu.uval.clear();
        lu.udiag.clear();
        lu.lptr.push(0);
        lu.uptr.push(0);
        // Step at which each original row was pivoted (u32::MAX = not yet).
        let row_step = &mut scratch.row_step;
        row_step.clear();
        row_step.resize(m, u32::MAX);
        // Dense scratch for the current column plus its touched pattern
        // (`in_pattern` guards against duplicate pattern entries when a
        // value cancels to exactly zero and is touched again).
        scratch.x.clear();
        scratch.x.resize(m, 0.0);
        let x = &mut scratch.x;
        scratch.in_pattern.clear();
        scratch.in_pattern.resize(m, false);
        let in_pattern = &mut scratch.in_pattern;
        let touched = &mut scratch.touched;
        touched.clear();
        // Gilbert–Peierls symbolic scratch: which elimination steps the
        // current column reaches, discovered by DFS over the L pattern.
        let reach = &mut scratch.reach;
        reach.clear();
        scratch.reached.clear();
        scratch.reached.resize(m, false);
        let reached = &mut scratch.reached;
        let dfs = &mut scratch.dfs;
        dfs.clear();

        for &pos in order.iter() {
            let k = lu.prow.len();
            // Scatter the column.
            for &(r, a) in basis_cols[pos as usize] {
                if !in_pattern[r as usize] {
                    in_pattern[r as usize] = true;
                    touched.push(r);
                }
                x[r as usize] += a;
            }
            // Symbolic phase (Gilbert–Peierls): the steps whose pivot rows
            // this column reaches, via DFS through the L columns — cost is
            // proportional to the reach, not to the number of prior steps.
            reach.clear();
            for &(r, _) in basis_cols[pos as usize] {
                let j0 = row_step[r as usize];
                if j0 == u32::MAX || reached[j0 as usize] {
                    continue;
                }
                dfs.push(j0);
                reached[j0 as usize] = true;
                while let Some(j) = dfs.pop() {
                    reach.push(j);
                    for e in lu.lptr[j as usize] as usize..lu.lptr[j as usize + 1] as usize {
                        let j2 = row_step[lu.lrow[e] as usize];
                        if j2 != u32::MAX && !reached[j2 as usize] {
                            reached[j2 as usize] = true;
                            dfs.push(j2);
                        }
                    }
                }
            }
            // The dependency order among reached steps is their numeric
            // order (step j is only updated by steps j' < j).
            reach.sort_unstable();
            // Numeric phase: left-looking solve over the reach only.
            for &j32 in reach.iter() {
                let j = j32 as usize;
                reached[j] = false;
                let t = x[lu.prow[j] as usize];
                if t == 0.0 {
                    continue;
                }
                for e in lu.lptr[j] as usize..lu.lptr[j + 1] as usize {
                    let i = lu.lrow[e] as usize;
                    if !in_pattern[i] {
                        in_pattern[i] = true;
                        touched.push(i as u32);
                    }
                    x[i] -= lu.lval[e] * t;
                }
            }
            // Pivot candidates: the touched rows not yet pivoted.
            let mut vmax = 0.0f64;
            for &r in touched.iter() {
                let v = x[r as usize];
                if v != 0.0 && row_step[r as usize] == u32::MAX && v.abs() > vmax {
                    vmax = v.abs();
                }
            }
            if vmax < singular {
                return Err(Singular);
            }
            // Threshold pivoting: sparsest eligible row, ties by magnitude
            // then row index (all deterministic).
            let mut best: Option<(u32, f64, u32)> = None; // (row nnz, |v|, row)
            for &r in touched.iter() {
                let v = x[r as usize];
                if v == 0.0 || row_step[r as usize] != u32::MAX {
                    continue;
                }
                if v.abs() + singular < pivot_rel_tol * vmax {
                    continue;
                }
                let key = (row_count[r as usize], v.abs(), r);
                let better = match best {
                    None => true,
                    Some((bc, bv, br)) => {
                        key.0 < bc || (key.0 == bc && (key.1 > bv || (key.1 == bv && r < br)))
                    }
                };
                if better {
                    best = Some(key);
                }
            }
            let (_, _, pr) = best.ok_or(Singular)?;
            let piv = x[pr as usize];
            // Entry order within an L/U column is irrelevant to the solve
            // kernels (scatter updates and dot products); `touched` is
            // filled deterministically, so the layout is reproducible
            // without a sort.
            for &r in touched.iter() {
                let v = x[r as usize];
                if v == 0.0 {
                    continue;
                }
                let step = row_step[r as usize];
                if step != u32::MAX {
                    lu.ustep.push(step);
                    lu.uval.push(v);
                } else if r != pr {
                    lu.lrow.push(r);
                    lu.lval.push(v / piv);
                }
            }
            // Reset scratch.
            for &r in touched.iter() {
                x[r as usize] = 0.0;
                in_pattern[r as usize] = false;
            }
            touched.clear();

            row_step[pr as usize] = k as u32;
            lu.prow.push(pr);
            lu.pcol.push(pos);
            lu.lptr.push(lu.lrow.len() as u32);
            lu.uptr.push(lu.ustep.len() as u32);
            lu.udiag.push(piv);
        }
        Ok(lu)
    }

    /// Solves `B x = b` in place: `x` enters holding `b` (indexed by
    /// constraint row) and leaves holding `B⁻¹ b` (indexed by basis
    /// position). Zero regions of the triangular solves are skipped, so a
    /// sparse `b` costs only the nonzeros it actually reaches.
    pub fn ftran(&self, x: &mut [f64], scratch: &mut Vec<f64>) {
        let m = self.m;
        debug_assert_eq!(x.len(), m);
        // L solve (forward, in row space).
        for k in 0..m {
            let t = x[self.prow[k] as usize];
            if t == 0.0 {
                continue;
            }
            for e in self.lptr[k] as usize..self.lptr[k + 1] as usize {
                x[self.lrow[e] as usize] -= self.lval[e] * t;
            }
        }
        // U solve (backward, in step space carried on the pivot rows).
        for k in (0..m).rev() {
            let t = x[self.prow[k] as usize];
            if t == 0.0 {
                continue;
            }
            let t = t / self.udiag[k];
            x[self.prow[k] as usize] = t;
            for e in self.uptr[k] as usize..self.uptr[k + 1] as usize {
                x[self.prow[self.ustep[e] as usize] as usize] -= self.uval[e] * t;
            }
        }
        // Permute step values to basis positions.
        scratch.clear();
        scratch.resize(m, 0.0);
        for k in 0..m {
            let v = x[self.prow[k] as usize];
            if v != 0.0 {
                scratch[self.pcol[k] as usize] = v;
            }
        }
        x.copy_from_slice(scratch);
    }

    /// Solves `Bᵀ y = c` in place: `x` enters holding `c` (indexed by
    /// basis position) and leaves holding `c' B⁻¹` (indexed by constraint
    /// row) — the dual / pivot-row kernel.
    pub fn btran(&self, x: &mut [f64], scratch: &mut Vec<f64>) {
        let m = self.m;
        debug_assert_eq!(x.len(), m);
        // Uᵀ solve (forward, step space): z_k = (c_k - Σ_{j<k} u_jk z_j) / u_kk.
        scratch.clear();
        scratch.resize(m, 0.0);
        let z = scratch;
        for k in 0..m {
            let mut acc = x[self.pcol[k] as usize];
            for e in self.uptr[k] as usize..self.uptr[k + 1] as usize {
                let zj = z[self.ustep[e] as usize];
                if zj != 0.0 {
                    acc -= self.uval[e] * zj;
                }
            }
            if acc != 0.0 {
                z[k] = acc / self.udiag[k];
            }
        }
        // Lᵀ solve (backward): place step values on pivot rows, then
        // eliminate in reverse step order.
        for v in x.iter_mut() {
            *v = 0.0;
        }
        for k in 0..m {
            x[self.prow[k] as usize] = z[k];
        }
        for k in (0..m).rev() {
            let mut acc = x[self.prow[k] as usize];
            for e in self.lptr[k] as usize..self.lptr[k + 1] as usize {
                let yi = x[self.lrow[e] as usize];
                if yi != 0.0 {
                    acc -= self.lval[e] * yi;
                }
            }
            x[self.prow[k] as usize] = acc;
        }
    }

    /// Nonzeros in the triangular factors including the diagonal (fill-in
    /// diagnostic).
    pub fn nnz(&self) -> usize {
        self.lval.len() + self.uval.len() + self.m
    }
}

/// Bases at or below this row count keep a dense explicit inverse. For
/// tiny bases the dense kernels win outright: an in-place eta update is a
/// few thousand contiguous flops, FTRAN/BTRAN are single `O(m·nnz)`
/// sweeps with no permutation bookkeeping, and the whole inverse is a few
/// cache lines — the sparse machinery's pointer-chasing fixed costs only
/// amortize once `m` clears a couple of hundred rows (measured break-even
/// on the paper's LP2 family: the 10-router / 133-row instances run ~2×
/// faster dense, the 999-row Figure 8 relaxation ~60× faster sparse).
pub const DENSE_MAX: usize = 200;

/// Dense explicit inverse backend for small bases: column-major `m × m`
/// `B⁻¹` (entry `(position i, row c)` at `binv[c·m + i]`), updated in
/// place by standard product-form pivoting.
#[derive(Debug, Clone)]
struct DenseInv {
    m: usize,
    binv: Vec<f64>,
}

impl DenseInv {
    /// Builds the dense inverse by Gauss–Jordan with partial pivoting.
    fn factorize(m: usize, basis_cols: &[&[(u32, f64)]]) -> Result<DenseInv, Singular> {
        let mut b = vec![0.0f64; m * m];
        let mut bmax = 0.0f64;
        for (pos, col) in basis_cols.iter().enumerate() {
            for &(row, a) in *col {
                b[pos * m + row as usize] = a;
                bmax = bmax.max(a.abs());
            }
        }
        let singular = SINGULAR_TOL * bmax.max(1.0);
        let mut inv = vec![0.0f64; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for piv in 0..m {
            let (mut best_r, mut best_v) = (piv, 0.0f64);
            for r in piv..m {
                let v = b[piv * m + r].abs();
                if v > best_v {
                    best_v = v;
                    best_r = r;
                }
            }
            if best_v < singular {
                return Err(Singular);
            }
            if best_r != piv {
                for c in 0..m {
                    b.swap(c * m + piv, c * m + best_r);
                    inv.swap(c * m + piv, c * m + best_r);
                }
            }
            let d = b[piv * m + piv];
            for c in 0..m {
                b[c * m + piv] /= d;
                inv[c * m + piv] /= d;
            }
            for r in 0..m {
                if r == piv {
                    continue;
                }
                let f = b[piv * m + r];
                if f == 0.0 {
                    continue;
                }
                for c in 0..m {
                    b[c * m + r] -= f * b[c * m + piv];
                    inv[c * m + r] -= f * inv[c * m + piv];
                }
            }
        }
        Ok(DenseInv { m, binv: inv })
    }

    /// `x ← B⁻¹ x`: accumulate the inverse's columns for the nonzero rows.
    fn ftran(&self, x: &mut [f64], scratch: &mut Vec<f64>) {
        let m = self.m;
        scratch.clear();
        scratch.resize(m, 0.0);
        for (row, &v) in x.iter().enumerate() {
            if v != 0.0 {
                let col = &self.binv[row * m..(row + 1) * m];
                for (acc, &ci) in scratch.iter_mut().zip(col) {
                    *acc += v * ci;
                }
            }
        }
        x.copy_from_slice(scratch);
    }

    /// `x ← x' B⁻¹`: one dot per row over the nonzero positions.
    fn btran(&self, x: &mut [f64], scratch: &mut Vec<f64>) {
        let m = self.m;
        scratch.clear();
        scratch.resize(m, 0.0);
        for (i, &v) in x.iter().enumerate() {
            if v != 0.0 {
                for (c, acc) in scratch.iter_mut().enumerate() {
                    *acc += v * self.binv[c * m + i];
                }
            }
        }
        x.copy_from_slice(scratch);
    }

    /// In-place product-form pivot on position `r` with FTRAN column `w`.
    fn update(&mut self, r: usize, w: &[f64]) -> Result<(), Singular> {
        let m = self.m;
        let pivot = w[r];
        if pivot.abs() < SINGULAR_TOL {
            return Err(Singular);
        }
        for c in 0..m {
            let col = &mut self.binv[c * m..(c + 1) * m];
            let pr = col[r];
            if pr == 0.0 {
                continue;
            }
            let f = pr / pivot;
            for (i, (ci, &wi)) in col.iter_mut().zip(w).enumerate() {
                if i != r {
                    *ci -= wi * f;
                }
            }
            col[r] = f;
        }
        Ok(())
    }
}

/// Sparse backend state: the LU factors plus the product-form eta chain
/// accumulated since the last refactorization.
#[derive(Debug, Clone)]
struct SparseBasis {
    lu: SparseLu,
    /// Pivot position of each eta.
    eta_r: Vec<u32>,
    /// Inverse pivot (`1 / w_r`) of each eta.
    eta_diag: Vec<f64>,
    /// Eta column extents into `eta_idx`/`eta_val` (`(position,
    /// -w_i/w_r)` pairs for `i ≠ r`).
    eta_ptr: Vec<u32>,
    eta_idx: Vec<u32>,
    eta_val: Vec<f64>,
}

/// The two basis backends (see [`DENSE_MAX`]).
#[derive(Debug, Clone)]
enum Repr {
    Dense {
        inv: DenseInv,
        /// In-place updates applied since the last factorization (bounds
        /// round-off accumulation, mirroring the eta cap).
        updates: usize,
    },
    Sparse(Box<SparseBasis>),
}

/// A simplex basis, behind a size-dispatched backend: small bases keep a
/// dense explicit inverse, large ones a sparse LU plus the product-form
/// eta chain accumulated since the last refactorization (flat storage,
/// cheap to clone into a warm-start snapshot).
#[derive(Debug, Clone)]
pub struct Basis {
    m: usize,
    repr: Repr,
    /// Adaptive Markowitz-style relative pivot threshold used by sparse
    /// refactorizations; starts at [`PIVOT_REL_TOL`] and is raised by
    /// [`Basis::tighten_pivot_tol`] when residual certification fails.
    pivot_rel_tol: f64,
}

impl Basis {
    /// Factorizes the given basis columns, picking the backend by size
    /// (dense at or below [`DENSE_MAX`] rows, sparse LU above).
    pub fn factorize(m: usize, basis_cols: &[&[(u32, f64)]]) -> Result<Basis, Singular> {
        if m <= DENSE_MAX {
            Ok(Basis {
                m,
                repr: Repr::Dense {
                    inv: DenseInv::factorize(m, basis_cols)?,
                    updates: 0,
                },
                pivot_rel_tol: PIVOT_REL_TOL,
            })
        } else {
            Basis::factorize_sparse(m, basis_cols)
        }
    }

    /// Forces the sparse-LU backend regardless of size (the kernels'
    /// differential tests in `tests/proptest_lu.rs` use this; production
    /// callers want [`Basis::factorize`]).
    pub fn factorize_sparse(m: usize, basis_cols: &[&[(u32, f64)]]) -> Result<Basis, Singular> {
        Ok(Basis {
            m,
            repr: Repr::Sparse(Box::new(SparseBasis {
                lu: SparseLu::factorize(m, basis_cols)?,
                eta_r: Vec::new(),
                eta_diag: Vec::new(),
                eta_ptr: vec![0],
                eta_idx: Vec::new(),
                eta_val: Vec::new(),
            })),
            pivot_rel_tol: PIVOT_REL_TOL,
        })
    }

    /// Trades sparsity for stability: raises the relative pivot threshold
    /// used by subsequent sparse refactorizations (×3 per call, capped at
    /// [`crate::tol::LU_PIVOT_REL_MAX`], which is close to full partial
    /// pivoting). Returns `false` when no further tightening is possible —
    /// either the cap is reached or the backend is dense (whose
    /// Gauss–Jordan factorization already does max-magnitude partial
    /// pivoting). The simplex's accuracy monitor calls this when the
    /// primal residual stays above tolerance after a refactorization.
    pub fn tighten_pivot_tol(&mut self) -> bool {
        if matches!(self.repr, Repr::Dense { .. }) {
            return false;
        }
        let next = (self.pivot_rel_tol * 3.0).min(crate::tol::LU_PIVOT_REL_MAX);
        if next <= self.pivot_rel_tol {
            return false;
        }
        self.pivot_rel_tol = next;
        true
    }

    /// Refactorizes this basis from `basis_cols` in place; the sparse
    /// backend reuses all of its storage plus the caller's workspace
    /// (zero steady-state allocations) and discards the eta chain. On
    /// [`Singular`] the basis must not be used for further solves.
    pub fn refactorize_with(
        &mut self,
        m: usize,
        basis_cols: &[&[(u32, f64)]],
        scratch: &mut FactorScratch,
    ) -> Result<(), Singular> {
        self.m = m;
        // The backend chosen at construction is kept: the basis dimension
        // never changes mid-solve, and forced-sparse bases (the kernel
        // tests) must stay sparse across refactorizations.
        match &mut self.repr {
            Repr::Dense { inv, updates } => {
                *inv = DenseInv::factorize(m, basis_cols)?;
                *updates = 0;
                Ok(())
            }
            Repr::Sparse(sb) => {
                let donor = std::mem::replace(&mut sb.lu, SparseLu::empty());
                sb.lu = SparseLu::factorize_tol(m, basis_cols, scratch, donor, self.pivot_rel_tol)?;
                sb.eta_r.clear();
                sb.eta_diag.clear();
                sb.eta_ptr.clear();
                sb.eta_ptr.push(0);
                sb.eta_idx.clear();
                sb.eta_val.clear();
                Ok(())
            }
        }
    }

    /// Basis dimension.
    pub fn m(&self) -> usize {
        self.m
    }

    /// `x ← B⁻¹ x` (row space in, position space out).
    pub fn ftran(&self, x: &mut [f64], scratch: &mut Vec<f64>) {
        match &self.repr {
            Repr::Dense { inv, .. } => inv.ftran(x, scratch),
            Repr::Sparse(sb) => {
                sb.lu.ftran(x, scratch);
                for (k, (&r, &d)) in sb.eta_r.iter().zip(&sb.eta_diag).enumerate() {
                    let t = x[r as usize];
                    if t == 0.0 {
                        continue;
                    }
                    x[r as usize] = d * t;
                    for e in sb.eta_ptr[k] as usize..sb.eta_ptr[k + 1] as usize {
                        x[sb.eta_idx[e] as usize] += sb.eta_val[e] * t;
                    }
                }
            }
        }
    }

    /// `x ← x' B⁻¹` (position space in, row space out).
    pub fn btran(&self, x: &mut [f64], scratch: &mut Vec<f64>) {
        match &self.repr {
            Repr::Dense { inv, .. } => inv.btran(x, scratch),
            Repr::Sparse(sb) => {
                for (k, (&r, &d)) in sb.eta_r.iter().zip(&sb.eta_diag).enumerate().rev() {
                    let mut acc = x[r as usize] * d;
                    for e in sb.eta_ptr[k] as usize..sb.eta_ptr[k + 1] as usize {
                        let xi = x[sb.eta_idx[e] as usize];
                        if xi != 0.0 {
                            acc += sb.eta_val[e] * xi;
                        }
                    }
                    x[r as usize] = acc;
                }
                sb.lu.btran(x, scratch);
            }
        }
    }

    /// Applies the pivot that replaced the basic variable at position `r`,
    /// where `w = B⁻¹ a_q` is the FTRAN of the entering column under the
    /// *current* basis. Rejects pivots too small to divide by.
    pub fn update(&mut self, r: usize, w: &[f64]) -> Result<(), Singular> {
        match &mut self.repr {
            Repr::Dense { inv, updates } => {
                inv.update(r, w)?;
                *updates += 1;
                Ok(())
            }
            Repr::Sparse(sb) => {
                let piv = w[r];
                if piv.abs() < SINGULAR_TOL {
                    return Err(Singular);
                }
                for (i, &wi) in w.iter().enumerate() {
                    if i != r && wi != 0.0 {
                        sb.eta_idx.push(i as u32);
                        sb.eta_val.push(-wi / piv);
                    }
                }
                sb.eta_r.push(r as u32);
                sb.eta_diag.push(1.0 / piv);
                sb.eta_ptr.push(sb.eta_idx.len() as u32);
                Ok(())
            }
        }
    }

    /// Basis-change updates applied since the last factorization.
    pub fn updates_since_factorize(&self) -> usize {
        match &self.repr {
            Repr::Dense { updates, .. } => *updates,
            Repr::Sparse(sb) => sb.eta_r.len(),
        }
    }

    /// Nonzeros in the underlying factors (dense: the full inverse).
    pub fn lu_nnz(&self) -> usize {
        match &self.repr {
            Repr::Dense { inv, .. } => inv.binv.len(),
            Repr::Sparse(sb) => sb.lu.nnz(),
        }
    }

    /// Whether the accumulated updates warrant refactorizing — the
    /// update-vs-refactorize policy per backend. Dense: a long in-place
    /// update run only accumulates round-off, so the cap is generous
    /// (matching the dense core this module replaced). Sparse: once the
    /// eta chain's nonzeros rival the factors' own, every FTRAN/BTRAN
    /// pays more for the chain than for the triangular solves, and the
    /// (cheap, allocation-free) refactorization wins; the flat floor
    /// keeps borderline bases from refactorizing every couple of pivots.
    pub fn should_refactorize(&self) -> bool {
        match &self.repr {
            Repr::Dense { updates, .. } => *updates >= 1000,
            Repr::Sparse(sb) => {
                let cap = sb.lu.nnz().max(512);
                sb.eta_r.len() >= MAX_ETAS || sb.eta_idx.len() + sb.eta_r.len() > cap
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense reference solve via Gauss-Jordan; panics on singular input.
    fn dense_solve(m: usize, cols: &[Vec<(u32, f64)>], b: &[f64], transpose: bool) -> Vec<f64> {
        // a[r][c] = entry (row r, position c).
        let mut a = vec![vec![0.0f64; m]; m];
        for (c, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                if transpose {
                    a[c][r as usize] = v;
                } else {
                    a[r as usize][c] = v;
                }
            }
        }
        let mut rhs = b.to_vec();
        for p in 0..m {
            let best = (p..m)
                .max_by(|&i, &j| a[i][p].abs().partial_cmp(&a[j][p].abs()).unwrap())
                .unwrap();
            a.swap(p, best);
            rhs.swap(p, best);
            let d = a[p][p];
            assert!(d.abs() > 1e-12, "singular reference");
            for c in 0..m {
                a[p][c] /= d;
            }
            rhs[p] /= d;
            for r in 0..m {
                if r != p && a[r][p] != 0.0 {
                    let f = a[r][p];
                    for c in 0..m {
                        a[r][c] -= f * a[p][c];
                    }
                    rhs[r] -= f * rhs[p];
                }
            }
        }
        rhs
    }

    fn refs(cols: &[Vec<(u32, f64)>]) -> Vec<&[(u32, f64)]> {
        cols.iter().map(|c| c.as_slice()).collect()
    }

    #[test]
    fn factorize_identity() {
        let cols: Vec<Vec<(u32, f64)>> = (0..4).map(|i| vec![(i as u32, 1.0)]).collect();
        let lu = SparseLu::factorize(4, &refs(&cols)).unwrap();
        let mut s = Vec::new();
        let mut x = vec![3.0, -1.0, 0.0, 2.0];
        lu.ftran(&mut x, &mut s);
        assert_eq!(x, vec![3.0, -1.0, 0.0, 2.0]);
        let mut y = vec![1.0, 2.0, 3.0, 4.0];
        lu.btran(&mut y, &mut s);
        assert_eq!(y, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn ftran_btran_match_dense_reference() {
        // A fixed sparse 5x5 with an awkward (permuted, off-diagonal)
        // structure.
        let cols: Vec<Vec<(u32, f64)>> = vec![
            vec![(1, 2.0), (3, -1.0)],
            vec![(0, 1.0), (4, 0.5)],
            vec![(2, -3.0)],
            vec![(0, 4.0), (1, 1.0), (3, 2.0)],
            vec![(2, 1.0), (4, -2.0)],
        ];
        let lu = SparseLu::factorize(5, &refs(&cols)).unwrap();
        let mut s = Vec::new();
        let b = vec![1.0, -2.0, 0.5, 3.0, 0.0];
        let mut x = b.clone();
        lu.ftran(&mut x, &mut s);
        let want = dense_solve(5, &cols, &b, false);
        for (got, want) in x.iter().zip(&want) {
            assert!((got - want).abs() < 1e-9, "{x:?} vs {want:?}");
        }
        let c = vec![0.0, 1.0, -1.0, 2.0, 0.5];
        let mut y = c.clone();
        lu.btran(&mut y, &mut s);
        let want = dense_solve(5, &cols, &c, true);
        for (got, want) in y.iter().zip(&want) {
            assert!((got - want).abs() < 1e-9, "{y:?} vs {want:?}");
        }
    }

    #[test]
    fn singular_basis_is_rejected() {
        let cols: Vec<Vec<(u32, f64)>> = vec![
            vec![(0, 1.0), (1, 1.0)],
            vec![(0, 2.0), (1, 2.0)], // linearly dependent
            vec![(2, 1.0)],
        ];
        assert!(SparseLu::factorize(3, &refs(&cols)).is_err());
    }

    #[test]
    fn update_replaces_a_column() {
        // Start from the identity, replace position 1 with a new column,
        // and check FTRAN/BTRAN against the dense inverse of the updated
        // matrix.
        let cols: Vec<Vec<(u32, f64)>> = (0..3).map(|i| vec![(i as u32, 1.0)]).collect();
        let mut basis = Basis::factorize(3, &refs(&cols)).unwrap();
        let mut s = Vec::new();
        let newcol: Vec<(u32, f64)> = vec![(0, 1.0), (1, 3.0), (2, -1.0)];
        let mut w = vec![0.0; 3];
        for &(r, a) in &newcol {
            w[r as usize] = a;
        }
        basis.ftran(&mut w, &mut s);
        basis.update(1, &w).unwrap();
        assert_eq!(basis.updates_since_factorize(), 1);

        let mut updated = cols.clone();
        updated[1] = newcol;
        let b = vec![2.0, -1.0, 4.0];
        let mut x = b.clone();
        basis.ftran(&mut x, &mut s);
        let want = dense_solve(3, &updated, &b, false);
        for (got, want) in x.iter().zip(&want) {
            assert!((got - want).abs() < 1e-9);
        }
        let mut y = b.clone();
        basis.btran(&mut y, &mut s);
        let want = dense_solve(3, &updated, &b, true);
        for (got, want) in y.iter().zip(&want) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn tiny_update_pivot_is_rejected() {
        let cols: Vec<Vec<(u32, f64)>> = (0..2).map(|i| vec![(i as u32, 1.0)]).collect();
        let mut basis = Basis::factorize(2, &refs(&cols)).unwrap();
        let w = vec![1.0, 0.0];
        assert_eq!(basis.update(1, &w), Err(Singular));
    }
}
