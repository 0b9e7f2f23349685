//! # fpa-testutil
//!
//! Deterministic randomized-testing helpers used by the workspace's
//! property-style tests. The crate exists so the repository builds and
//! tests **offline**: it replaces the `proptest`/`rand` stack with a
//! seeded xorshift generator and a tiny case runner — no registry access
//! required.
//!
//! The tests that use it keep the *property* formulation (random inputs,
//! invariant assertions) **with** seed replay: every failure prints the
//! case seed, and rerunning with that seed reproduces the exact input.
//! Tests that model their case as an explicit value can additionally
//! minimize failures with [`run_cases_shrinking`], which greedily applies
//! caller-supplied shrink candidates ([`shrink_to_fixpoint`]) until no
//! smaller case still fails — the panic message then carries both the
//! seed and the minimized case.

/// A `xorshift64*` pseudo-random generator: tiny, fast, and deterministic
/// across platforms. Not cryptographic — it only drives test-case
/// generation.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed (0 is remapped to a fixed odd seed).
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below(0)");
        // Multiply-shift bounding: fine for test-case generation.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform `i32` in `[lo, hi)`.
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        assert!(lo < hi);
        lo + self.below((hi as i64 - lo as i64) as u64) as i32
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi);
        lo + self.below(u64::from(hi - lo)) as u32
    }

    /// A random boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Picks a uniformly random element of `items`.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// A vector of length `[min_len, max_len)` filled by `gen`.
    pub fn vec<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut gen: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        let n = min_len + self.index(max_len - min_len);
        (0..n).map(|_| gen(self)).collect()
    }
}

/// Runs `body` for `cases` deterministic seeds derived from `base_seed`.
///
/// Panics (via the body's assertions) identify the failing case seed in
/// the standard panic message; pass that seed as `base_seed` with
/// `cases = 1` to reproduce.
pub fn run_cases(base_seed: u64, cases: u32, mut body: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let seed = base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(case) + 1);
        let mut rng = Rng::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(e) = result {
            eprintln!("case {case} failed (rng seed {seed:#x}, base {base_seed:#x})");
            std::panic::resume_unwind(e);
        }
    }
}

/// Greedily minimizes `failing` under `still_fails`, using `candidates`
/// to propose strictly "smaller" variants of a case.
///
/// Classic fixpoint shrinking: each round asks `candidates` for every
/// one-step reduction of the current case (in a deterministic order),
/// keeps the first one that still fails, and repeats until no candidate
/// fails. `candidates` must eventually return an empty (or all-passing)
/// set for the loop to terminate — deletion- and simplification-style
/// edits that strictly reduce case size satisfy this naturally.
///
/// Returns the minimized case and the number of accepted reduction steps.
pub fn shrink_to_fixpoint<T>(
    failing: T,
    candidates: impl Fn(&T) -> Vec<T>,
    still_fails: impl Fn(&T) -> bool,
) -> (T, u32) {
    let mut current = failing;
    let mut steps = 0u32;
    'outer: loop {
        for cand in candidates(&current) {
            if still_fails(&cand) {
                current = cand;
                steps += 1;
                continue 'outer;
            }
        }
        return (current, steps);
    }
}

/// Like [`run_cases`], but for properties whose case is an explicit value:
/// `gen` builds the case from the seeded [`Rng`], `check` returns `Err`
/// with a description when the property fails, and `candidates` proposes
/// shrink steps (see [`shrink_to_fixpoint`]).
///
/// On failure the case is minimized and the panic message reports the
/// case seed (replayable, exactly as [`run_cases`]), the shrink-step
/// count, and the minimized case via its `Debug` form.
///
/// # Panics
///
/// Panics when `check` fails for any generated case.
pub fn run_cases_shrinking<T: std::fmt::Debug>(
    base_seed: u64,
    cases: u32,
    gen: impl Fn(&mut Rng) -> T,
    candidates: impl Fn(&T) -> Vec<T>,
    check: impl Fn(&T) -> Result<(), String>,
) {
    for case in 0..cases {
        let seed = base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(case) + 1);
        let input = gen(&mut Rng::new(seed));
        let Err(first_failure) = check(&input) else {
            continue;
        };
        let (minimized, steps) = shrink_to_fixpoint(input, &candidates, |c| check(c).is_err());
        let final_failure = check(&minimized).expect_err("shrinking preserves failure");
        panic!(
            "case {case} failed (rng seed {seed:#x}, base {base_seed:#x})\n\
             original failure: {first_failure}\n\
             after {steps} shrink step(s): {final_failure}\n\
             minimized case: {minimized:#?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for _ in 0..1000 {
            let v = a.range_i32(-5, 17);
            assert!((-5..17).contains(&v));
            let u = a.below(7);
            assert!(u < 7);
        }
    }

    #[test]
    fn run_cases_varies_seeds() {
        let mut seen = std::collections::HashSet::new();
        run_cases(1, 16, |rng| {
            seen.insert(rng.next_u64());
        });
        assert_eq!(seen.len(), 16);
    }

    /// Shrinking a vector of ints under "contains an element >= 10" must
    /// converge to the single smallest witness.
    #[test]
    fn shrink_finds_minimal_witness() {
        let candidates = |v: &Vec<i32>| {
            let mut out = Vec::new();
            for i in 0..v.len() {
                let mut smaller = v.clone();
                smaller.remove(i);
                out.push(smaller);
            }
            for i in 0..v.len() {
                if v[i] > 0 {
                    let mut smaller = v.clone();
                    smaller[i] /= 2;
                    out.push(smaller);
                }
            }
            out
        };
        let fails = |v: &Vec<i32>| v.iter().any(|&x| x >= 10);
        let (min, steps) = shrink_to_fixpoint(vec![3, 40, 7, 12, 99], candidates, fails);
        // One element left, halving it once more would pass.
        assert_eq!(min.len(), 1);
        assert!(min[0] >= 10 && min[0] / 2 < 10, "not minimal: {min:?}");
        assert!(steps > 0);
    }

    #[test]
    fn shrink_returns_input_when_nothing_smaller_fails() {
        let (min, steps) = shrink_to_fixpoint(7u32, |_| vec![], |_| true);
        assert_eq!((min, steps), (7, 0));
    }

    #[test]
    fn run_cases_shrinking_passes_when_property_holds() {
        run_cases_shrinking(
            99,
            16,
            |rng| rng.below(100),
            |&v| if v > 0 { vec![v / 2] } else { vec![] },
            |&v| {
                if v < 100 {
                    Ok(())
                } else {
                    Err("too big".into())
                }
            },
        );
    }

    #[test]
    fn run_cases_shrinking_minimizes_and_reports_seed() {
        let result = std::panic::catch_unwind(|| {
            run_cases_shrinking(
                5,
                32,
                |rng| rng.below(1000) + 500,
                |&v| if v > 0 { vec![v - 1, v / 2] } else { vec![] },
                |&v| {
                    if v < 100 {
                        Ok(())
                    } else {
                        Err(format!("{v} >= 100"))
                    }
                },
            );
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("rng seed"), "seed missing: {msg}");
        assert!(msg.contains("minimized case: 100"), "not minimal: {msg}");
    }
}
