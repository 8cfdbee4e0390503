//! Reference equivalence of the progressive RREF.
//!
//! `ProgressiveRref::insert_row` skips work that cannot change a value:
//! a row operation stops at the support of the row it subtracts, solved
//! rows keep a tight support, and a row whose support lies inside the
//! decoded prefix is reported redundant before any elimination. The
//! [`Reference`] below is the plain algorithm without any of that: dense
//! vectors, every row operation over the whole suffix from the pivot,
//! no early-out and no support tracking. Randomized insertion sequences
//! drive both, and every observable must agree after every insert.

use std::sync::Mutex;

use prlc_gf::{Gf256, GfElem};
use prlc_linalg::{CoeffRow, InsertOutcome, Matrix, ProgressiveRref};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The obs registry and tracer are process-global; the test that
/// enables them must not overlap the others.
static GUARD: Mutex<()> = Mutex::new(());

/// Payload length in symbols.
const BLOCK: usize = 3;

struct RefRow {
    coeffs: Vec<Gf256>,
    payload: Vec<Gf256>,
    pivot: usize,
}

/// Progressive Gauss–Jordan elimination over full-width dense rows.
struct Reference {
    width: usize,
    rows: Vec<RefRow>,
    pivot_of_col: Vec<Option<usize>>,
    solved: Vec<bool>,
    prefix: usize,
    inserted: usize,
    last_solved: Vec<usize>,
}

/// `dst[i] += f · src[i]` for every `i >= start`.
fn axpy_suffix(dst: &mut [Gf256], start: usize, f: Gf256, src: &[Gf256]) {
    Gf256::axpy(&mut dst[start..], f, &src[start..]);
}

fn nonzeros(v: &[Gf256]) -> usize {
    v.iter().filter(|c| !c.is_zero()).count()
}

impl Reference {
    fn new(width: usize) -> Self {
        Reference {
            width,
            rows: Vec::new(),
            pivot_of_col: vec![None; width],
            solved: vec![false; width],
            prefix: 0,
            inserted: 0,
            last_solved: Vec::new(),
        }
    }

    fn insert(&mut self, mut coeffs: Vec<Gf256>, mut payload: Vec<Gf256>) -> InsertOutcome {
        self.inserted += 1;
        self.last_solved.clear();

        let mut pivot_col = None;
        for c in 0..self.width {
            if coeffs[c].is_zero() {
                continue;
            }
            match self.pivot_of_col[c] {
                Some(r) => {
                    let f = coeffs[c];
                    axpy_suffix(&mut coeffs, c, f, &self.rows[r].coeffs);
                    Gf256::axpy(&mut payload, f, &self.rows[r].payload);
                }
                None => {
                    pivot_col.get_or_insert(c);
                }
            }
        }
        let Some(pc) = pivot_col else {
            return InsertOutcome::Redundant;
        };

        let inv = coeffs[pc].gf_inv().expect("pivot entry is nonzero");
        Gf256::scale_slice(&mut coeffs[pc..], inv);
        Gf256::scale_slice(&mut payload, inv);

        for row in &mut self.rows {
            let f = row.coeffs[pc];
            if f.is_zero() {
                continue;
            }
            axpy_suffix(&mut row.coeffs, pc, f, &coeffs);
            Gf256::axpy(&mut row.payload, f, &payload);
            if nonzeros(&row.coeffs) == 1 && !self.solved[row.pivot] {
                self.solved[row.pivot] = true;
                self.last_solved.push(row.pivot);
            }
        }
        if nonzeros(&coeffs) == 1 {
            self.solved[pc] = true;
            self.last_solved.push(pc);
        }
        self.pivot_of_col[pc] = Some(self.rows.len());
        self.rows.push(RefRow {
            coeffs,
            payload,
            pivot: pc,
        });
        while self.prefix < self.width && self.solved[self.prefix] {
            self.prefix += 1;
        }
        self.last_solved.sort_unstable();
        InsertOutcome::Innovative { pivot: pc }
    }

    fn coefficient_matrix(&self) -> Option<Matrix<Gf256>> {
        if self.rows.is_empty() {
            return None;
        }
        let mut order: Vec<&RefRow> = self.rows.iter().collect();
        order.sort_by_key(|r| r.pivot);
        Some(Matrix::from_rows(
            order.iter().map(|r| r.coeffs.clone()).collect(),
        ))
    }

    fn recovered(&self, col: usize) -> Option<&Vec<Gf256>> {
        self.solved[col].then(|| &self.rows[self.pivot_of_col[col].unwrap()].payload)
    }
}

/// Asserts every observable of `dut` equals the reference's.
fn assert_same(dut: &ProgressiveRref<Gf256, Vec<Gf256>>, reference: &Reference, ctx: &str) {
    assert_eq!(dut.rank(), reference.rows.len(), "{ctx}: rank");
    assert_eq!(dut.inserted(), reference.inserted, "{ctx}: inserted");
    assert_eq!(
        dut.newly_solved(),
        &reference.last_solved[..],
        "{ctx}: newly_solved"
    );
    assert_eq!(dut.decoded_prefix(), reference.prefix, "{ctx}: prefix");
    assert_eq!(
        dut.decoded_count(),
        reference.solved.iter().filter(|&&s| s).count(),
        "{ctx}: decoded_count"
    );
    assert_eq!(
        dut.coefficient_matrix(),
        reference.coefficient_matrix(),
        "{ctx}: coefficient matrix"
    );
    for col in 0..reference.width {
        assert_eq!(
            dut.recovered(col),
            reference.recovered(col),
            "{ctx}: payload {col}"
        );
    }
}

/// One offered row and whether it is offered in sparse form.
struct Offer {
    coeffs: Vec<Gf256>,
    sparse: bool,
}

/// Draws the next row of a randomized sequence: PLC prefix rows,
/// arbitrary supports, rows inside the decoded prefix, zero rows and
/// scaled duplicates of earlier rows.
fn next_offer(
    rng: &mut StdRng,
    width: usize,
    bounds: &[usize],
    prefix: usize,
    history: &[Vec<Gf256>],
) -> Offer {
    let mut coeffs = vec![Gf256::ZERO; width];
    match rng.gen_range(0..6) {
        0 | 1 => {
            let end = bounds[rng.gen_range(0..bounds.len())];
            for c in &mut coeffs[..end] {
                *c = Gf256::random(rng);
            }
        }
        2 => {
            let density = rng.gen_range(0.05..0.9);
            for c in &mut coeffs {
                if rng.gen_bool(density) {
                    *c = Gf256::random_nonzero(rng);
                }
            }
        }
        3 if prefix > 0 => {
            for c in &mut coeffs[..rng.gen_range(1..=prefix)] {
                if rng.gen_bool(0.6) {
                    *c = Gf256::random(rng);
                }
            }
        }
        4 if !history.is_empty() => {
            let f = Gf256::random_nonzero(rng);
            for (c, &h) in coeffs
                .iter_mut()
                .zip(&history[rng.gen_range(0..history.len())])
            {
                *c = f * h;
            }
        }
        _ => {}
    }
    Offer {
        coeffs,
        sparse: rng.gen_bool(0.5),
    }
}

fn to_row(offer: &Offer) -> CoeffRow<Gf256> {
    if offer.sparse {
        let entries = offer
            .coeffs
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_zero())
            .map(|(i, &c)| (i as u32, c))
            .collect();
        CoeffRow::from_sorted_entries(offer.coeffs.len(), entries)
    } else {
        CoeffRow::from_dense(offer.coeffs.clone())
    }
}

/// The payload `Σ_j coeffs[j] · sources[j]`.
fn encode(coeffs: &[Gf256], sources: &[Vec<Gf256>]) -> Vec<Gf256> {
    let mut payload = vec![Gf256::ZERO; BLOCK];
    for (&c, s) in coeffs.iter().zip(sources) {
        Gf256::axpy(&mut payload, c, s);
    }
    payload
}

#[test]
fn insert_matches_reference_on_random_sequences() {
    let _guard = GUARD.lock().unwrap();
    let sequences = if cfg!(miri) { 4 } else { 300 };
    let mut rng = StdRng::seed_from_u64(0x5EF_E7E4);
    for seq in 0..sequences {
        let width = rng.gen_range(1..=40);
        // Level boundaries b_1 < … < b_L = width of a PLC profile.
        let mut bounds: Vec<usize> = (1..width).filter(|_| rng.gen_bool(0.2)).collect();
        bounds.push(width);
        let sources: Vec<Vec<Gf256>> = (0..width)
            .map(|_| (0..BLOCK).map(|_| Gf256::random(&mut rng)).collect())
            .collect();

        let mut dut: ProgressiveRref<Gf256, Vec<Gf256>> = ProgressiveRref::new(width);
        let mut reference = Reference::new(width);
        let mut history = Vec::new();
        for step in 0..rng.gen_range(1..3 * width + 4) {
            let offer = next_offer(&mut rng, width, &bounds, reference.prefix, &history);
            let payload = encode(&offer.coeffs, &sources);
            let got = dut.insert_row(to_row(&offer), payload.clone());
            let want = reference.insert(offer.coeffs.clone(), payload);
            let ctx = format!("sequence {seq}, step {step}, width {width}");
            assert_eq!(got, want, "{ctx}: outcome");
            assert_same(&dut, &reference, &ctx);
            history.push(offer.coeffs);
        }
        for (col, source) in sources.iter().enumerate().take(dut.decoded_prefix()) {
            assert_eq!(dut.recovered(col), Some(source), "sequence {seq}");
        }
    }
}

#[test]
fn dominated_row_keeps_the_redundant_side_effects() {
    let _guard = GUARD.lock().unwrap();
    prlc_obs::enable();
    prlc_obs::trace::enable();
    prlc_obs::reset();
    prlc_obs::trace::reset();
    let _track = prlc_obs::trace::track(0xD0_7E);

    let g = Gf256::from_index;
    let mut dut: ProgressiveRref<Gf256, Vec<Gf256>> = ProgressiveRref::new(4);
    dut.insert(vec![g(3), g(0), g(0), g(0)], vec![g(1)]);
    dut.insert(vec![g(5), g(7), g(0), g(0)], vec![g(2)]);
    dut.insert(vec![g(1), g(2), g(3), g(4)], vec![g(3)]);
    assert_eq!(dut.decoded_prefix(), 2);
    prlc_obs::reset();
    prlc_obs::trace::reset();

    let outcome = dut.insert(vec![g(9), g(6), g(0), g(0)], vec![g(4)]);
    prlc_obs::disable();
    prlc_obs::trace::disable();

    assert_eq!(outcome, InsertOutcome::Redundant);
    let counter = |name| prlc_obs::registry().counter(name).get();
    assert_eq!(counter("linalg.rref.rows"), 1);
    assert_eq!(counter("linalg.rref.redundant"), 1);
    assert_eq!(counter("linalg.rref.pivots"), 0);
    // No elimination ran: every kernel byte counter stayed at zero.
    let snap = prlc_obs::snapshot();
    let kernel_bytes: Vec<_> = snap
        .counters
        .iter()
        .filter(|(name, v)| name.starts_with("gf.") && *v > 0)
        .collect();
    assert!(kernel_bytes.is_empty(), "{kernel_bytes:?}");
    let trace = prlc_obs::trace::snapshot();
    let records: Vec<_> = trace.iter().map(|(_, r)| r).collect();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].name(), "linalg.rref.redundant_row");
    assert_eq!(records[0].tick(), 4);
    assert_eq!(records[0].arg("rank"), Some(3));
}
