//! Matching-modes suite: the count-bounded and subset-masked scan
//! kernels and the four server-side matching modes — each checked
//! against a naive oracle built from nothing but the scalar
//! `cyclic_close` test, across every configuration of the prefilter
//! (scalar / the plane under both its names) and every cell-width
//! class.

use fuzzy_id::core::conditions::{cyclic_close, sketches_match};
use fuzzy_id::core::{FilterConfig, SketchArena, SketchIndex};
use fuzzy_id::protocol::{
    AuthenticationServer, BiometricDevice, ProtocolError, SystemParams, UserId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// The oracle: a Vec-of-Option model over the scalar cyclic test. No
// columns, no planes, no budget cleverness — matches are enumerated in
// full and truncated afterwards.
// ---------------------------------------------------------------------------

fn row_matches(row: &[i64], probe: &[i64], t: u64, ka: u64) -> bool {
    row.len() == probe.len()
        && row
            .iter()
            .zip(probe.iter())
            .all(|(&a, &b)| cyclic_close(a, b, t, ka))
}

struct Model {
    t: u64,
    ka: u64,
    rows: Vec<Option<Vec<i64>>>,
}

impl Model {
    /// All matching live row ids, ascending.
    fn all(&self, probe: &[i64]) -> Vec<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                r.as_ref()
                    .is_some_and(|r| row_matches(r, probe, self.t, self.ka))
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Find-at-most-K: the `budget` lowest matching ids.
    fn at_most(&self, probe: &[i64], budget: usize) -> Vec<usize> {
        let mut all = self.all(probe);
        all.truncate(budget);
        all
    }

    /// Find-at-most-K over an id subset.
    fn at_most_masked(&self, probe: &[i64], mask: &[usize], budget: usize) -> Vec<usize> {
        let mut all: Vec<usize> = self
            .all(probe)
            .into_iter()
            .filter(|i| mask.contains(i))
            .collect();
        all.truncate(budget);
        all
    }
}

// ---------------------------------------------------------------------------
// Strategies. Populations are built from a handful of base sketches
// replicated with ±2t noise so that multi-match clusters (the whole
// point of a budget) arise in every case, on every ring width class —
// including the ka ≥ 2⁶³ regime where the kernel widens through i128.
// ---------------------------------------------------------------------------

fn ring() -> impl Strategy<Value = (u64, u64)> {
    (0u8..4)
        .prop_flat_map(|width| {
            let (lo, hi) = match width {
                0 => (4u64, (1 << 15) - 1),
                1 => (1u64 << 15, (1 << 31) - 1),
                2 => (1u64 << 31, (1 << 62) - 1),
                _ => (1u64 << 63, u64::MAX),
            };
            lo..=hi
        })
        .prop_flat_map(|ka| (1u64..(ka / 2).clamp(2, 1 << 30), Just(ka)))
}

/// (base-pool index, per-coordinate noise in ±2t, alive?) — rows and
/// probes both derive from the shared base pool, so matches, near
/// misses, and tombstoned matches all occur.
type Derived = (usize, Vec<i64>, bool);

#[allow(clippy::type_complexity)]
fn population() -> impl Strategy<Value = (u64, u64, Vec<Vec<i64>>, Vec<Derived>, Vec<Derived>, u64)>
{
    (ring(), 1usize..5).prop_flat_map(|((t, ka), dim)| {
        let half = (ka / 2).min(i64::MAX as u64 / 4) as i64;
        let spread = 2 * t as i64;
        let base = prop::collection::vec(-half..=half, dim..dim + 1);
        let derived = move || {
            (
                0usize..4,
                prop::collection::vec(-spread..=spread, dim..dim + 1),
                any::<bool>(),
            )
        };
        (
            Just(t),
            Just(ka),
            prop::collection::vec(base, 1..4),
            prop::collection::vec(derived(), 1..32),
            prop::collection::vec(derived(), 1..6),
            any::<u64>(),
        )
    })
}

fn materialize(bases: &[Vec<i64>], (sel, noise, _): &Derived) -> Vec<i64> {
    bases[sel % bases.len()]
        .iter()
        .zip(noise.iter())
        .map(|(&v, &d)| v.saturating_add(d))
        .collect()
}

/// Every kernel under test: the plane's word loop, by the default and
/// by `swar()` (the same plane), and plain scalar.
fn kernel_sweep() -> [FilterConfig; 3] {
    [
        FilterConfig::default(),
        FilterConfig::swar(),
        FilterConfig::disabled(),
    ]
}

const BUDGETS: [usize; 5] = [0, 1, 2, 3, usize::MAX];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tentpole equivalence, single-template: `find` without and with
    /// an id subset ≡ the oracle for every budget, every mask,
    /// every kernel.
    #[test]
    fn bounded_and_masked_scan_match_oracle(
        (t, ka, bases, rows, probes, mask_seed) in population(),
    ) {
        let model = Model {
            t,
            ka,
            rows: rows
                .iter()
                .map(|r| r.2.then(|| materialize(&bases, r)))
                .collect(),
        };
        let mask: Vec<usize> = (0..rows.len())
            .filter(|i| mask_seed & (1u64 << (i % 64)) != 0)
            .collect();
        for filter in kernel_sweep() {
            let mut arena = SketchArena::with_filter(t, ka, filter);
            for row in &rows {
                let id = arena.push(&materialize(&bases, row));
                if !row.2 {
                    arena.remove(id);
                }
            }
            for probe in &probes {
                let probe = materialize(&bases, probe);
                for budget in BUDGETS {
                    prop_assert_eq!(
                        arena.find(&probe, None, budget),
                        model.at_most(&probe, budget),
                        "find(budget={}) diverged on kernel {}",
                        budget, arena.filter_kernel()
                    );
                    prop_assert_eq!(
                        arena.find(&probe, Some(&mask), budget),
                        model.at_most_masked(&probe, &mask, budget),
                        "masked(budget={}) diverged on kernel {}",
                        budget, arena.filter_kernel()
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Edge cases the proptests reach only by luck: budgets filling exactly
// at word and tile boundaries, a budget over tombstones, and the three
// degenerate mask shapes.
// ---------------------------------------------------------------------------

const T: u64 = 100;
const KA: u64 = 400;

/// The `budget`-th match landing exactly on a 64-row liveness-word or
/// a 1 024-row tile boundary must neither duplicate nor drop hits: the
/// probe leaves the sweep at that hit, whichever side of the boundary
/// it is on.
#[test]
fn exactly_k_at_word_and_tile_boundaries() {
    let hits = [0usize, 63, 64, 65, 1023, 1024, 1025, 2047, 2048];
    for filter in kernel_sweep() {
        let mut arena = SketchArena::with_filter(T, KA, filter);
        for row in 0..2100usize {
            // Matching rows sit at `hits`; everything else is far away.
            let v = if hits.contains(&row) { 0i64 } else { 195 };
            arena.push(&[v]);
        }
        for k in 0..=hits.len() + 1 {
            assert_eq!(
                arena.find(&[0], None, k),
                &hits[..k.min(hits.len())],
                "budget {k} on kernel {}",
                arena.filter_kernel()
            );
        }
    }
}

/// A budget under tombstones: with every row matching and a prefix
/// revoked, the bounded sweep must return the first `budget` *live*
/// ids — the lowest live id wins, and dead rows consume no budget.
#[test]
fn budget_cancellation_survives_tombstones() {
    for kill in [0usize, 1, 63, 64, 65, 130] {
        let mut arena = SketchArena::new(T, KA);
        for _ in 0..257 {
            arena.push(&[7]);
        }
        for id in 0..kill {
            arena.remove(id);
        }
        // Scattered mid-range tombstones on top of the prefix.
        arena.remove(200);
        let expect: Vec<usize> = (kill..257).filter(|&id| id != 200).take(3).collect();
        assert_eq!(arena.find(&[7], None, 3), expect, "kill prefix {kill}");
    }
}

/// Mask degeneracies: empty selects nothing, full is identical to the
/// unmasked sweep, and a one-row mask isolates exactly that row's
/// match decision (dead rows stay unmatchable even when selected).
#[test]
fn masks_empty_full_and_one_row() {
    let mut arena = SketchArena::new(T, KA);
    for row in 0..130i64 {
        arena.push(&[if row % 3 == 0 { 10 } else { 190 }]);
    }
    arena.remove(6);
    let probe = [5i64];

    assert_eq!(arena.find(&probe, Some(&[]), 8), vec![]);

    let full: Vec<usize> = (0..130).collect();
    assert_eq!(
        arena.find(&probe, Some(&full), usize::MAX),
        arena.find(&probe, None, usize::MAX)
    );

    for row in 0..130usize {
        let one = [row];
        let got = arena.find(&probe, Some(&one), 8);
        let matches = row % 3 == 0 && row != 6;
        assert_eq!(got, if matches { vec![row] } else { vec![] }, "row {row}");
    }
}

// ---------------------------------------------------------------------------
// Server-level modes vs the helper-data oracle: every stored record's
// sketch is readable through `all_helpers`, so the four protocol modes
// can be re-derived from first principles and compared.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `reset`, `authenticate_claimed`, `check_local_uniqueness`, and
    /// `enroll_unique` all agree with the match-set computed naively
    /// over the stored helper sketches — on genuine, impostor, and
    /// deliberately ambiguous (duplicate-biometric) probes.
    #[test]
    fn server_modes_agree_with_helper_oracle(
        seed in any::<u64>(),
        users in 2usize..7,
        dup in any::<bool>(),
    ) {
        let params = SystemParams::insecure_test_defaults();
        let t = params.sketch().threshold();
        let ka = params.sketch().line().interval_len();
        let device = BiometricDevice::new(params.clone());
        let mut server = AuthenticationServer::new(params.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 32;
        let mut bios = Vec::new();
        for u in 0..users {
            let bio = params.sketch().line().random_vector(dim, &mut rng);
            server
                .enroll(device.enroll(&format!("user-{u}"), &bio, &mut rng).unwrap())
                .unwrap();
            bios.push(bio);
        }
        if dup {
            // Permissive default admits a duplicate biometric — the
            // ambiguity reset must then detect.
            let noisy: Vec<i64> = bios[0].iter().map(|&x| x + 3).collect();
            server
                .enroll(device.enroll("user-0-dup", &noisy, &mut rng).unwrap())
                .unwrap();
        }
        let helpers = server.all_helpers();
        let oracle = |probe: &[i64]| -> Vec<UserId> {
            helpers
                .iter()
                .filter(|(_, h)| {
                    h.sketch.inner.len() == probe.len()
                        && sketches_match(&h.sketch.inner, probe, t, ka)
                })
                .map(|(id, _)| id.clone())
                .collect()
        };

        // Genuine probes for every user plus one impostor probe.
        let mut probes = Vec::new();
        for bio in &bios {
            let reading: Vec<i64> =
                bio.iter().map(|&x| x + rng.gen_range(-90i64..=90)).collect();
            probes.push(device.probe_sketch(&reading, &mut rng).unwrap());
        }
        let stranger = params.sketch().line().random_vector(dim, &mut rng);
        probes.push(device.probe_sketch(&stranger, &mut rng).unwrap());

        for probe in &probes {
            let expect = oracle(probe);

            // Reset: 0 / exactly-1 / ≥2.
            match server.reset(probe) {
                Ok(id) => prop_assert_eq!(vec![id], expect.clone()),
                Err(ProtocolError::NoMatch) => prop_assert!(expect.is_empty()),
                Err(ProtocolError::AmbiguousMatch) => prop_assert!(expect.len() >= 2),
                Err(e) => prop_assert!(false, "unexpected reset error {e:?}"),
            }

            // Targeted authentication checks exactly the claimed record.
            for (id, _) in &helpers {
                prop_assert_eq!(
                    server.authenticate_claimed(id, probe).unwrap(),
                    expect.contains(id),
                    "claim {} diverged", id
                );
            }

            // Local uniqueness over a pseudo-random id subset.
            let subset: Vec<UserId> = helpers
                .iter()
                .enumerate()
                .filter(|(i, _)| seed & (1u64 << (i % 64)) != 0)
                .map(|(_, (id, _))| id.clone())
                .collect();
            prop_assert_eq!(
                server.check_local_uniqueness(probe, &subset).unwrap(),
                !subset.iter().any(|id| expect.contains(id)),
            );
        }

        // Uniqueness-checked enrollment: a fresh record is admitted iff
        // its sketch matches nothing already stored.
        let near: Vec<i64> = bios[1].iter().map(|&x| x + 5).collect();
        for bio in [near, params.sketch().line().random_vector(dim, &mut rng)] {
            let record = device.enroll("candidate", &bio, &mut rng).unwrap();
            let expect = oracle(&record.helper.sketch.inner);
            match server.enroll_unique(record) {
                Ok(()) => {
                    prop_assert!(expect.is_empty());
                    server.revoke("candidate").unwrap();
                }
                Err(ProtocolError::DuplicateBiometric(id)) => {
                    prop_assert!(expect.contains(&id));
                }
                Err(e) => prop_assert!(false, "unexpected enroll error {e:?}"),
            }
        }
    }
}
