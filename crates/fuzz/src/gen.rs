//! Grammar-directed random program generation.
//!
//! [`generate`] draws a whole [`GProgram`] from a seeded [`Rng`]: global
//! arrays and scalars, a few helper functions, and `main`. The output is
//! safe by construction (see the `ast` module docs) and *observable*:
//! `main` ends with an epilogue that prints every global scalar and a
//! fold of every global array, so state corrupted anywhere in the run
//! shows up in the output the oracle compares.
//!
//! Generation is fully deterministic in the `Rng`, which is what makes
//! fuzzing reproducible: a case is its seed, and the corpus only needs to
//! store the minimized source plus the seed it came from.

use crate::ast::{
    DBinOp, DCmpOp, DExpr, ElemKind, GArg, GArray, GFunc, GProgram, GScalar, GStmt, GTy, IBinOp,
    IExpr, ScalarInit,
};
use fpa_harness::json::Json;
use fpa_testutil::Rng;

/// Grammar production weights: the relative probability of each
/// statement / expression production. These are the feedback surface of
/// coverage-guided fuzzing — the campaign engine mutates and splices
/// weight tables of coverage-novel parents, steering the grammar toward
/// shapes that reach new structural features while every generated
/// program stays safe by construction (the productions themselves are
/// unchanged; only their mix varies).
///
/// The defaults reproduce the historical fixed distribution exactly
/// (each table sums to 100 and the selection consumes one `below(total)`
/// draw, so default-weight generation is byte-identical to the
/// pre-feedback generator for any seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenWeights {
    /// Statement productions: assign-int, assign-double, store, if, for,
    /// while, break/continue, return, call, print, printc, printd.
    pub stmt: [u32; 12],
    /// Integer expression productions: literal, variable, load, neg, not,
    /// binop, div/rem, double-compare, from-double, call.
    pub iexpr: [u32; 10],
    /// Double expression productions: literal, variable, load, neg,
    /// binop, from-int, call.
    pub dexpr: [u32; 7],
}

impl Default for GenWeights {
    fn default() -> GenWeights {
        GenWeights {
            stmt: [14, 8, 10, 14, 12, 7, 4, 4, 6, 9, 5, 7],
            iexpr: [16, 14, 10, 4, 4, 26, 6, 6, 6, 8],
            dexpr: [18, 16, 10, 5, 28, 13, 10],
        }
    }
}

/// Per-entry cap on a mutated weight. Keeps any single production from
/// drowning out the rest while still allowing order-of-magnitude bias.
const WEIGHT_CAP: u32 = 40;

fn mutate_table<const N: usize>(table: &mut [u32; N], rng: &mut Rng) {
    let edits = 1 + rng.index(3);
    for _ in 0..edits {
        let i = rng.index(N);
        let delta = 1 + rng.below(8) as u32;
        table[i] = if rng.bool() {
            (table[i] + delta).min(WEIGHT_CAP)
        } else {
            table[i].saturating_sub(delta)
        };
    }
    if table.iter().all(|&w| w == 0) {
        table[rng.index(N)] = 1;
    }
}

fn splice_table<const N: usize>(a: &[u32; N], b: &[u32; N], rng: &mut Rng) -> [u32; N] {
    // One-point crossover: prefix from one parent, suffix from the other.
    let cut = rng.index(N + 1);
    let mut out = *a;
    out[cut..].copy_from_slice(&b[cut..]);
    if out.iter().all(|&w| w == 0) {
        out[rng.index(N)] = 1;
    }
    out
}

fn table_to_json<const N: usize>(t: &[u32; N]) -> Vec<Json> {
    t.iter().map(|&w| Json::from(u64::from(w))).collect()
}

fn table_from_json<const N: usize>(v: &Json) -> Option<[u32; N]> {
    let arr = v.as_arr()?;
    if arr.len() != N {
        return None;
    }
    let mut out = [0u32; N];
    for (slot, j) in out.iter_mut().zip(arr) {
        *slot = u32::try_from(j.as_u64()?).ok()?;
    }
    Some(out)
}

/// Size knobs for the generator. The defaults keep every case small
/// enough that a full oracle check (six builds, seven executions) runs in
/// milliseconds, while still exercising loops, branches, calls, memory
/// traffic, and int/double mixing.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// Helper functions besides `main` (0..=this).
    pub max_helpers: usize,
    /// Statements per top-level function body (2..=this).
    pub max_stmts: usize,
    /// Maximum statement nesting (if/for/while inside each other).
    pub max_nest: u32,
    /// Maximum expression depth.
    pub max_expr_depth: u32,
    /// Global arrays (1..=this).
    pub max_arrays: usize,
    /// Global scalars (1..=this).
    pub max_globals: usize,
    /// `for` trip-count cap inside `main`.
    pub main_loop_iters: i32,
    /// `for` trip-count cap inside helpers (smaller: helpers can be
    /// called from `main`'s loops, so their work multiplies).
    pub helper_loop_iters: i32,
    /// Grammar production weights.
    pub weights: GenWeights,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            max_helpers: 3,
            max_stmts: 6,
            max_nest: 2,
            max_expr_depth: 3,
            max_arrays: 3,
            max_globals: 4,
            main_loop_iters: 6,
            helper_loop_iters: 4,
            weights: GenWeights::default(),
        }
    }
}

/// Hard bounds every mutated configuration stays inside, keeping any
/// evolved case's oracle check bounded (termination is structural —
/// counted `for`s and fueled `while`s — so these caps only bound cost,
/// not safety).
const SIZE_BOUNDS: [(usize, usize); 8] = [
    (0, 4),  // max_helpers
    (2, 12), // max_stmts
    (1, 3),  // max_nest
    (1, 4),  // max_expr_depth
    (1, 5),  // max_arrays
    (1, 8),  // max_globals
    (1, 10), // main_loop_iters
    (1, 6),  // helper_loop_iters
];

impl GenConfig {
    fn sizes(&self) -> [usize; 8] {
        [
            self.max_helpers,
            self.max_stmts,
            self.max_nest as usize,
            self.max_expr_depth as usize,
            self.max_arrays,
            self.max_globals,
            self.main_loop_iters as usize,
            self.helper_loop_iters as usize,
        ]
    }

    fn with_sizes(mut self, s: [usize; 8]) -> GenConfig {
        self.max_helpers = s[0];
        self.max_stmts = s[1];
        self.max_nest = s[2] as u32;
        self.max_expr_depth = s[3] as u32;
        self.max_arrays = s[4];
        self.max_globals = s[5];
        self.main_loop_iters = s[6] as i32;
        self.helper_loop_iters = s[7] as i32;
        self
    }

    /// A mutated copy: one or two operations, each either nudging a few
    /// weight entries or stepping a size knob within `SIZE_BOUNDS`.
    /// Size knobs get a double share — structural size is what unlocks
    /// new coverage buckets (log2 size classes need 2× growth).
    /// Deterministic in `rng`.
    #[must_use]
    pub fn mutate(&self, rng: &mut Rng) -> GenConfig {
        let mut out = self.clone();
        let ops = 1 + rng.below(2);
        for _ in 0..ops {
            match rng.below(5) {
                0 => mutate_table(&mut out.weights.stmt, rng),
                1 => mutate_table(&mut out.weights.iexpr, rng),
                2 => mutate_table(&mut out.weights.dexpr, rng),
                _ => {
                    let mut s = out.sizes();
                    let i = rng.index(s.len());
                    let (lo, hi) = SIZE_BOUNDS[i];
                    s[i] = if rng.bool() {
                        (s[i] + 1).min(hi)
                    } else {
                        s[i].saturating_sub(1).max(lo)
                    };
                    out = out.with_sizes(s);
                }
            }
        }
        out
    }

    /// A freshly explored configuration: every size knob sampled
    /// uniformly within `SIZE_BOUNDS` and every weight table perturbed.
    /// Campaign lineages use this to spread their starting points across
    /// the whole configuration space — incremental [`GenConfig::mutate`]
    /// steps are a symmetric random walk and on their own never leave the
    /// default neighborhood within a lineage's budget. Deterministic in
    /// `rng`.
    #[must_use]
    pub fn explore(rng: &mut Rng) -> GenConfig {
        let mut s = [0usize; 8];
        for (slot, (lo, hi)) in s.iter_mut().zip(SIZE_BOUNDS) {
            *slot = lo + rng.index(hi - lo + 1);
        }
        let mut out = GenConfig::default().with_sizes(s);
        mutate_table(&mut out.weights.stmt, rng);
        mutate_table(&mut out.weights.iexpr, rng);
        mutate_table(&mut out.weights.dexpr, rng);
        out
    }

    /// A spliced child of two parents: each weight table crosses over at
    /// a random point, each size knob comes from either parent.
    /// Deterministic in `rng`.
    #[must_use]
    pub fn splice(&self, other: &GenConfig, rng: &mut Rng) -> GenConfig {
        let mut out = self.clone();
        out.weights.stmt = splice_table(&self.weights.stmt, &other.weights.stmt, rng);
        out.weights.iexpr = splice_table(&self.weights.iexpr, &other.weights.iexpr, rng);
        out.weights.dexpr = splice_table(&self.weights.dexpr, &other.weights.dexpr, rng);
        let (a, b) = (self.sizes(), other.sizes());
        let mut s = a;
        for i in 0..s.len() {
            s[i] = if rng.bool() { a[i] } else { b[i] };
        }
        out.with_sizes(s)
    }

    /// JSON form (campaign reports record each novel case's genome so
    /// `fpa-fuzz distill` can regenerate its program bit-for-bit).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        let s = self.sizes();
        o.set(
            "sizes",
            s.iter()
                .map(|&v| Json::from(v as u64))
                .collect::<Vec<Json>>(),
        );
        o.set("stmt", table_to_json(&self.weights.stmt));
        o.set("iexpr", table_to_json(&self.weights.iexpr));
        o.set("dexpr", table_to_json(&self.weights.dexpr));
        o
    }

    /// Reconstructs a configuration from [`GenConfig::to_json`] output.
    #[must_use]
    pub fn from_json(v: &Json) -> Option<GenConfig> {
        let sizes: [u32; 8] = table_from_json(v.get("sizes")?)?;
        let mut s = [0usize; 8];
        for (slot, &x) in s.iter_mut().zip(&sizes) {
            *slot = x as usize;
        }
        let cfg = GenConfig {
            weights: GenWeights {
                stmt: table_from_json(v.get("stmt")?)?,
                iexpr: table_from_json(v.get("iexpr")?)?,
                dexpr: table_from_json(v.get("dexpr")?)?,
            },
            ..GenConfig::default()
        };
        Some(cfg.with_sizes(s))
    }
}

/// Signature of an already-generated function (callable from later ones).
#[derive(Debug, Clone)]
struct Sig {
    name: String,
    params: Vec<GTy>,
    ret: Option<GTy>,
}

/// Per-function generation scope.
struct Scope {
    /// Readable int variables (globals, params, locals, loop counters).
    int_vars: Vec<String>,
    /// Readable double variables.
    dbl_vars: Vec<String>,
    /// Assignable int variables (excludes loop counters and fuel vars,
    /// which generated statements must never write).
    int_assign: Vec<String>,
    /// Assignable double variables.
    dbl_assign: Vec<String>,
    /// Accumulating local declarations (including counters/fuel).
    locals: Vec<GScalar>,
    /// Fresh-name counter for loop counters / fuel vars / epilogue temps.
    next_tmp: u32,
    /// Trip-count cap for `for` loops in this function.
    iter_cap: i32,
    /// Return type of the function being generated.
    ret: Option<GTy>,
}

impl Scope {
    fn fresh(&mut self, prefix: &str) -> String {
        let n = self.next_tmp;
        self.next_tmp += 1;
        format!("{prefix}{n}")
    }
}

const INT_POOL: [i32; 12] = [
    0,
    1,
    -1,
    2,
    7,
    31,
    32,
    100,
    255,
    4096,
    i32::MAX,
    i32::MIN + 1,
];
const DBL_POOL: [f64; 10] = [0.0, 0.5, 1.0, 1.5, 2.0, 0.25, 3.75, 8.0, 100.5, 1024.0];

struct Gen<'r> {
    rng: &'r mut Rng,
    cfg: GenConfig,
    arrays: Vec<GArray>,
    sigs: Vec<Sig>,
}

impl Gen<'_> {
    fn int_lit(&mut self) -> i32 {
        match self.rng.below(4) {
            0 => *self.rng.choose(&INT_POOL),
            1 => self.rng.next_u32() as i32,
            _ => self.rng.range_i32(-16, 65),
        }
    }

    fn dbl_lit(&mut self) -> f64 {
        *self.rng.choose(&DBL_POOL)
    }

    fn int_arrays(&self) -> Vec<usize> {
        (0..self.arrays.len())
            .filter(|&i| self.arrays[i].elem != ElemKind::Double)
            .collect()
    }

    fn dbl_arrays(&self) -> Vec<usize> {
        (0..self.arrays.len())
            .filter(|&i| self.arrays[i].elem == ElemKind::Double)
            .collect()
    }

    fn sigs_returning(&self, ty: Option<GTy>) -> Vec<usize> {
        (0..self.sigs.len())
            .filter(|&i| self.sigs[i].ret == ty)
            .collect()
    }

    fn gen_args(&mut self, sc: &Scope, sig_idx: usize, depth: u32) -> Vec<GArg> {
        let params = self.sigs[sig_idx].params.clone();
        params
            .iter()
            .map(|p| match p {
                GTy::Int => GArg::I(self.gen_iexpr(sc, depth)),
                GTy::Double => GArg::D(self.gen_dexpr(sc, depth)),
            })
            .collect()
    }

    /// Cumulative weighted production pick: one `below(total)` draw mapped
    /// through the table's prefix sums. With the default tables (sum 100)
    /// this consumes exactly the draw the historical `below(100)` range
    /// match did, keeping default-weight generation byte-identical.
    fn pick<const N: usize>(&mut self, table: [u32; N]) -> usize {
        let total: u64 = table.iter().map(|&w| u64::from(w)).sum();
        let mut draw = self.rng.below(total.max(1));
        for (i, &w) in table.iter().enumerate() {
            if draw < u64::from(w) {
                return i;
            }
            draw -= u64::from(w);
        }
        N - 1
    }

    fn gen_iexpr(&mut self, sc: &Scope, depth: u32) -> IExpr {
        if depth == 0 {
            return if !sc.int_vars.is_empty() && self.rng.bool() {
                IExpr::Var(self.rng.choose(&sc.int_vars).clone())
            } else {
                IExpr::Lit(self.int_lit())
            };
        }
        let d = depth - 1;
        match self.pick(self.cfg.weights.iexpr) {
            0 => IExpr::Lit(self.int_lit()),
            1 => {
                if sc.int_vars.is_empty() {
                    IExpr::Lit(self.int_lit())
                } else {
                    IExpr::Var(self.rng.choose(&sc.int_vars).clone())
                }
            }
            2 => {
                let candidates = self.int_arrays();
                if candidates.is_empty() {
                    IExpr::Lit(self.int_lit())
                } else {
                    let a = &self.arrays[*self.rng.choose(&candidates)];
                    let (name, mask) = (a.name.clone(), a.mask());
                    IExpr::Load {
                        arr: name,
                        mask,
                        idx: Box::new(self.gen_iexpr(sc, d)),
                    }
                }
            }
            3 => IExpr::Neg(Box::new(self.gen_iexpr(sc, d))),
            4 => IExpr::Not(Box::new(self.gen_iexpr(sc, d))),
            5 => IExpr::Bin {
                op: *self.rng.choose(&IBinOp::ALL),
                l: Box::new(self.gen_iexpr(sc, d)),
                r: Box::new(self.gen_iexpr(sc, d)),
            },
            6 => {
                let (l, r) = (self.gen_iexpr(sc, d), self.gen_iexpr(sc, d));
                if self.rng.bool() {
                    IExpr::Div {
                        l: Box::new(l),
                        r: Box::new(r),
                    }
                } else {
                    IExpr::Rem {
                        l: Box::new(l),
                        r: Box::new(r),
                    }
                }
            }
            7 => IExpr::DCmp {
                op: *self.rng.choose(&DCmpOp::ALL),
                l: Box::new(self.gen_dexpr(sc, d)),
                r: Box::new(self.gen_dexpr(sc, d)),
            },
            8 => IExpr::FromD(Box::new(self.gen_dexpr(sc, d))),
            _ => {
                let callable = self.sigs_returning(Some(GTy::Int));
                if callable.is_empty() {
                    IExpr::Lit(self.int_lit())
                } else {
                    let si = *self.rng.choose(&callable);
                    IExpr::Call {
                        func: self.sigs[si].name.clone(),
                        args: self.gen_args(sc, si, d.min(1)),
                    }
                }
            }
        }
    }

    fn gen_dexpr(&mut self, sc: &Scope, depth: u32) -> DExpr {
        if depth == 0 {
            return if !sc.dbl_vars.is_empty() && self.rng.bool() {
                DExpr::Var(self.rng.choose(&sc.dbl_vars).clone())
            } else {
                DExpr::Lit(self.dbl_lit())
            };
        }
        let d = depth - 1;
        match self.pick(self.cfg.weights.dexpr) {
            0 => DExpr::Lit(self.dbl_lit()),
            1 => {
                if sc.dbl_vars.is_empty() {
                    DExpr::Lit(self.dbl_lit())
                } else {
                    DExpr::Var(self.rng.choose(&sc.dbl_vars).clone())
                }
            }
            2 => {
                let candidates = self.dbl_arrays();
                if candidates.is_empty() {
                    DExpr::Lit(self.dbl_lit())
                } else {
                    let a = &self.arrays[*self.rng.choose(&candidates)];
                    let (name, mask) = (a.name.clone(), a.mask());
                    DExpr::Load {
                        arr: name,
                        mask,
                        idx: Box::new(self.gen_iexpr(sc, d)),
                    }
                }
            }
            3 => DExpr::Neg(Box::new(self.gen_dexpr(sc, d))),
            4 => DExpr::Bin {
                op: *self.rng.choose(&DBinOp::ALL),
                l: Box::new(self.gen_dexpr(sc, d)),
                r: Box::new(self.gen_dexpr(sc, d)),
            },
            5 => DExpr::FromI(Box::new(self.gen_iexpr(sc, d))),
            _ => {
                let callable = self.sigs_returning(Some(GTy::Double));
                if callable.is_empty() {
                    DExpr::Lit(self.dbl_lit())
                } else {
                    let si = *self.rng.choose(&callable);
                    DExpr::Call {
                        func: self.sigs[si].name.clone(),
                        args: self.gen_args(sc, si, d.min(1)),
                    }
                }
            }
        }
    }

    fn gen_block(
        &mut self,
        sc: &mut Scope,
        min: usize,
        max: usize,
        nest: u32,
        in_loop: bool,
    ) -> Vec<GStmt> {
        let n = min + self.rng.index(max.saturating_sub(min) + 1);
        (0..n).map(|_| self.gen_stmt(sc, nest, in_loop)).collect()
    }

    fn gen_stmt(&mut self, sc: &mut Scope, nest: u32, in_loop: bool) -> GStmt {
        let ed = self.cfg.max_expr_depth;
        let can_nest = nest < self.cfg.max_nest;
        loop {
            match self.pick(self.cfg.weights.stmt) {
                // -- assignments ------------------------------------------
                0 => {
                    if sc.int_assign.is_empty() {
                        continue;
                    }
                    let var = self.rng.choose(&sc.int_assign).clone();
                    return GStmt::AssignI {
                        var,
                        e: self.gen_iexpr(sc, ed),
                    };
                }
                1 => {
                    if sc.dbl_assign.is_empty() {
                        continue;
                    }
                    let var = self.rng.choose(&sc.dbl_assign).clone();
                    return GStmt::AssignD {
                        var,
                        e: self.gen_dexpr(sc, ed),
                    };
                }
                // -- stores -----------------------------------------------
                2 => {
                    if self.arrays.is_empty() {
                        continue;
                    }
                    let ai = self.rng.index(self.arrays.len());
                    let a = &self.arrays[ai];
                    let (arr, mask, elem) = (a.name.clone(), a.mask(), a.elem);
                    let idx = self.gen_iexpr(sc, ed.min(2));
                    return match elem {
                        ElemKind::Double => GStmt::StoreD {
                            arr,
                            mask,
                            idx,
                            e: self.gen_dexpr(sc, ed),
                        },
                        ElemKind::Int | ElemKind::Byte => GStmt::StoreI {
                            arr,
                            mask,
                            idx,
                            e: self.gen_iexpr(sc, ed),
                        },
                    };
                }
                // -- control flow -----------------------------------------
                3 => {
                    if !can_nest {
                        continue;
                    }
                    let cond = self.gen_iexpr(sc, ed.min(2));
                    let then_s = self.gen_block(sc, 1, 3, nest + 1, in_loop);
                    let else_s = if self.rng.bool() {
                        self.gen_block(sc, 1, 2, nest + 1, in_loop)
                    } else {
                        Vec::new()
                    };
                    return GStmt::If {
                        cond,
                        then_s,
                        else_s,
                    };
                }
                4 => {
                    if !can_nest {
                        continue;
                    }
                    let var = sc.fresh("t");
                    sc.locals.push(GScalar {
                        name: var.clone(),
                        init: ScalarInit::I(0),
                    });
                    sc.int_vars.push(var.clone());
                    let count = self.rng.range_i32(1, sc.iter_cap + 1);
                    let body = self.gen_block(sc, 1, 3, nest + 1, true);
                    return GStmt::For { var, count, body };
                }
                5 => {
                    if !can_nest {
                        continue;
                    }
                    let fuel_var = sc.fresh("w");
                    let fuel = self.rng.range_i32(1, 7);
                    sc.locals.push(GScalar {
                        name: fuel_var.clone(),
                        init: ScalarInit::I(fuel),
                    });
                    sc.int_vars.push(fuel_var.clone());
                    let cond = self.gen_iexpr(sc, ed.min(2));
                    let body = self.gen_block(sc, 1, 3, nest + 1, true);
                    return GStmt::While {
                        fuel_var,
                        cond,
                        body,
                    };
                }
                6 => {
                    if !in_loop {
                        continue;
                    }
                    return if self.rng.bool() {
                        GStmt::Break
                    } else {
                        GStmt::Continue
                    };
                }
                7 => {
                    // Early return, only under a condition (nest >= 1) so a
                    // function body is never trivially cut short.
                    if nest == 0 {
                        continue;
                    }
                    let val = match sc.ret {
                        None => None,
                        Some(GTy::Int) => Some(GArg::I(self.gen_iexpr(sc, ed.min(2)))),
                        Some(GTy::Double) => Some(GArg::D(self.gen_dexpr(sc, ed.min(2)))),
                    };
                    return GStmt::Return(val);
                }
                // -- calls ------------------------------------------------
                8 => {
                    if self.sigs.is_empty() {
                        continue;
                    }
                    let si = self.rng.index(self.sigs.len());
                    return GStmt::Call {
                        func: self.sigs[si].name.clone(),
                        args: self.gen_args(sc, si, 1),
                    };
                }
                // -- observability ----------------------------------------
                9 => return GStmt::Print(self.gen_iexpr(sc, ed)),
                10 => return GStmt::PrintC(self.gen_iexpr(sc, ed.min(2))),
                _ => return GStmt::PrintD(self.gen_dexpr(sc, ed)),
            }
        }
    }

    fn gen_func(&mut self, name: String, is_main: bool, globals: &[GScalar]) -> GFunc {
        let (params, ret) = if is_main {
            (Vec::new(), Some(GTy::Int))
        } else {
            let nparams = self.rng.index(4);
            let params: Vec<(String, GTy)> = (0..nparams)
                .map(|i| {
                    let ty = if self.rng.below(3) == 0 {
                        GTy::Double
                    } else {
                        GTy::Int
                    };
                    (format!("p{i}"), ty)
                })
                .collect();
            let ret = match self.rng.below(9) {
                0..=4 => Some(GTy::Int),
                5..=6 => Some(GTy::Double),
                _ => None,
            };
            (params, ret)
        };

        let mut sc = Scope {
            int_vars: Vec::new(),
            dbl_vars: Vec::new(),
            int_assign: Vec::new(),
            dbl_assign: Vec::new(),
            locals: Vec::new(),
            next_tmp: 0,
            iter_cap: if is_main {
                self.cfg.main_loop_iters
            } else {
                self.cfg.helper_loop_iters
            },
            ret,
        };
        for g in globals {
            match g.init.ty() {
                GTy::Int => {
                    sc.int_vars.push(g.name.clone());
                    sc.int_assign.push(g.name.clone());
                }
                GTy::Double => {
                    sc.dbl_vars.push(g.name.clone());
                    sc.dbl_assign.push(g.name.clone());
                }
            }
        }
        for (pname, pty) in &params {
            match pty {
                GTy::Int => {
                    sc.int_vars.push(pname.clone());
                    sc.int_assign.push(pname.clone());
                }
                GTy::Double => {
                    sc.dbl_vars.push(pname.clone());
                    sc.dbl_assign.push(pname.clone());
                }
            }
        }
        let nlocals = 2 + self.rng.index(3);
        for i in 0..nlocals {
            let (name, init) = if self.rng.below(3) == 0 {
                (format!("ld{i}"), ScalarInit::D(self.dbl_lit()))
            } else {
                (format!("li{i}"), ScalarInit::I(self.rng.range_i32(-8, 33)))
            };
            match init.ty() {
                GTy::Int => {
                    sc.int_vars.push(name.clone());
                    sc.int_assign.push(name.clone());
                }
                GTy::Double => {
                    sc.dbl_vars.push(name.clone());
                    sc.dbl_assign.push(name.clone());
                }
            }
            sc.locals.push(GScalar { name, init });
        }

        let max = self.cfg.max_stmts;
        let mut body = self.gen_block(&mut sc, 2, max, 0, false);

        if is_main {
            body.extend(self.epilogue(&mut sc, globals));
        }

        let ret_val = match ret {
            None => None,
            Some(GTy::Int) => Some(GArg::I(self.gen_iexpr(&sc, 2))),
            Some(GTy::Double) => Some(GArg::D(self.gen_dexpr(&sc, 2))),
        };

        GFunc {
            name,
            params,
            ret,
            locals: sc.locals,
            body,
            ret_val,
        }
    }

    /// Statements appended to `main` that print every global scalar and a
    /// fold of every global array, making all global state observable.
    fn epilogue(&mut self, sc: &mut Scope, globals: &[GScalar]) -> Vec<GStmt> {
        let mut out = Vec::new();
        for g in globals {
            match g.init.ty() {
                GTy::Int => out.push(GStmt::Print(IExpr::Var(g.name.clone()))),
                GTy::Double => out.push(GStmt::PrintD(DExpr::Var(g.name.clone()))),
            }
        }
        for a in self.arrays.clone() {
            let t = sc.fresh("t");
            sc.locals.push(GScalar {
                name: t.clone(),
                init: ScalarInit::I(0),
            });
            match a.elem {
                ElemKind::Int | ElemKind::Byte => {
                    let acc = sc.fresh("acc");
                    sc.locals.push(GScalar {
                        name: acc.clone(),
                        init: ScalarInit::I(0),
                    });
                    // acc = (acc * 31) ^ a[t]
                    let fold = GStmt::AssignI {
                        var: acc.clone(),
                        e: IExpr::Bin {
                            op: IBinOp::Xor,
                            l: Box::new(IExpr::Bin {
                                op: IBinOp::Mul,
                                l: Box::new(IExpr::Var(acc.clone())),
                                r: Box::new(IExpr::Lit(31)),
                            }),
                            r: Box::new(IExpr::Load {
                                arr: a.name.clone(),
                                mask: a.mask(),
                                idx: Box::new(IExpr::Var(t.clone())),
                            }),
                        },
                    };
                    out.push(GStmt::For {
                        var: t,
                        count: a.len,
                        body: vec![fold],
                    });
                    out.push(GStmt::Print(IExpr::Var(acc)));
                }
                ElemKind::Double => {
                    let acc = sc.fresh("dacc");
                    sc.locals.push(GScalar {
                        name: acc.clone(),
                        init: ScalarInit::D(0.0),
                    });
                    let fold = GStmt::AssignD {
                        var: acc.clone(),
                        e: DExpr::Bin {
                            op: DBinOp::Add,
                            l: Box::new(DExpr::Var(acc.clone())),
                            r: Box::new(DExpr::Load {
                                arr: a.name.clone(),
                                mask: a.mask(),
                                idx: Box::new(IExpr::Var(t.clone())),
                            }),
                        },
                    };
                    out.push(GStmt::For {
                        var: t,
                        count: a.len,
                        body: vec![fold],
                    });
                    out.push(GStmt::PrintD(DExpr::Var(acc)));
                }
            }
        }
        out
    }
}

/// Generates one random program from `rng` under `cfg`.
#[must_use]
pub fn generate(rng: &mut Rng, cfg: &GenConfig) -> GProgram {
    let mut g = Gen {
        rng,
        cfg: cfg.clone(),
        arrays: Vec::new(),
        sigs: Vec::new(),
    };

    let narrays = 1 + g.rng.index(g.cfg.max_arrays);
    for i in 0..narrays {
        let elem = match g.rng.below(4) {
            0 => ElemKind::Double,
            1 => ElemKind::Byte,
            _ => ElemKind::Int,
        };
        let len = 1 << g.rng.range_u32(2, 6); // 4..=32
        let prefix = match elem {
            ElemKind::Int => "ai",
            ElemKind::Double => "ad",
            ElemKind::Byte => "ab",
        };
        g.arrays.push(GArray {
            name: format!("{prefix}{i}"),
            elem,
            len,
        });
    }

    let nglobals = 1 + g.rng.index(g.cfg.max_globals);
    let mut scalars = Vec::new();
    for i in 0..nglobals {
        if g.rng.below(3) == 0 {
            let v = g.dbl_lit();
            scalars.push(GScalar {
                name: format!("gd{i}"),
                init: ScalarInit::D(if g.rng.bool() { -v } else { v }),
            });
        } else {
            let v = g.int_lit();
            scalars.push(GScalar {
                name: format!("gi{i}"),
                init: ScalarInit::I(v),
            });
        }
    }

    let mut funcs = Vec::new();
    let nhelpers = g.rng.index(g.cfg.max_helpers + 1);
    for i in 0..nhelpers {
        let name = format!("f{i}");
        let f = g.gen_func(name.clone(), false, &scalars);
        g.sigs.push(Sig {
            name,
            params: f.params.iter().map(|(_, t)| *t).collect(),
            ret: f.ret,
        });
        funcs.push(f);
    }
    funcs.push(g.gen_func("main".into(), true, &scalars));

    GProgram {
        arrays: g.arrays,
        scalars,
        funcs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = generate(&mut Rng::new(7), &cfg).render();
        let b = generate(&mut Rng::new(7), &cfg).render();
        assert_eq!(a, b);
        let c = generate(&mut Rng::new(8), &cfg).render();
        assert_ne!(a, c, "different seeds should give different programs");
    }

    #[test]
    fn generated_programs_have_main_and_observability() {
        let cfg = GenConfig::default();
        for seed in 1..=20 {
            let p = generate(&mut Rng::new(seed), &cfg);
            assert_eq!(p.funcs.last().unwrap().name, "main");
            let src = p.render();
            assert!(src.contains("int main()"), "no main in:\n{src}");
            // The epilogue prints at least one global.
            assert!(src.contains("print"), "no observable output in:\n{src}");
        }
    }
}
