//! Property tests of the `Persist` blanket impls: random nested values
//! of every impl round-trip bitwise, and no truncation of a payload
//! restores.

use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::Arc;

use asm_simcore::persist::{Persist, StateReader, StateWriter};
use asm_simcore::{persist_fields, AppId, DetHashMap, HeadStall, LineAddr, SimRng};
use proptest::prelude::*;

/// One field per blanket impl, nested where the impls compose.
#[derive(Debug, Default)]
struct Everything {
    byte: u8,
    flag: bool,
    word: u32,
    long: u64,
    signed: i64,
    size: usize,
    real: f64,
    app: AppId,
    line: LineAddr,
    text: String,
    maybe: Option<Vec<u64>>,
    array: [Option<u32>; 3],
    pair: (u64, String),
    triple: (u8, f64, bool),
    arena: Box<[u8]>,
    fixed: Vec<(u64, u64)>,
    present: Option<f64>,
    grown: Vec<Vec<f64>>,
    deque: VecDeque<Option<AppId>>,
    heap: BinaryHeap<u64>,
    map: DetHashMap<u64, String>,
    ordered: BTreeMap<String, Arc<Vec<u64>>>,
    stalls: Vec<HeadStall>,
    shape: usize,
}

persist_fields!(Everything {
    (= shape),
    byte,
    flag,
    word,
    long,
    signed,
    size,
    real,
    app,
    line,
    text,
    maybe,
    array,
    pair,
    triple,
    arena,
    [fixed],
    [present],
    grown,
    deque,
    heap,
    map,
    ordered,
    stalls,
});

/// A value whose structural parts (`arena`, `fixed`, `present`, `shape`)
/// depend only on `shape`, and everything else on `rng`.
fn random(shape: usize, rng: &mut SimRng) -> Everything {
    let len = |rng: &mut SimRng| rng.gen_range(5) as usize;
    let text = |rng: &mut SimRng| {
        (0..rng.gen_range(6))
            .map(|_| char::from(b'a' + rng.gen_range(26) as u8))
            .collect::<String>()
    };
    let real = |rng: &mut SimRng| f64::from_bits(rng.next_u64());
    let app = |rng: &mut SimRng| AppId::new(rng.gen_range(1 << 16) as usize);
    Everything {
        byte: rng.next_u64() as u8,
        flag: rng.gen_bool(0.5),
        word: rng.next_u64() as u32,
        long: rng.next_u64(),
        signed: rng.next_u64() as i64,
        size: rng.next_u64() as usize,
        real: real(rng),
        app: app(rng),
        line: LineAddr::new(rng.next_u64()),
        text: text(rng),
        maybe: rng
            .gen_bool(0.5)
            .then(|| (0..len(rng)).map(|_| rng.next_u64()).collect()),
        array: [(); 3].map(|()| rng.gen_bool(0.5).then(|| rng.next_u64() as u32)),
        pair: (rng.next_u64(), text(rng)),
        triple: (rng.next_u64() as u8, real(rng), rng.gen_bool(0.5)),
        arena: (0..shape).map(|_| rng.next_u64() as u8).collect(),
        fixed: (0..shape).map(|_| (rng.next_u64(), rng.next_u64())).collect(),
        present: (shape % 2 == 1).then(|| real(rng)),
        grown: (0..len(rng))
            .map(|_| (0..len(rng)).map(|_| real(rng)).collect())
            .collect(),
        deque: (0..len(rng))
            .map(|_| rng.gen_bool(0.7).then(|| app(rng)))
            .collect(),
        heap: (0..len(rng)).map(|_| rng.next_u64()).collect(),
        map: (0..len(rng)).map(|_| (rng.next_u64(), text(rng))).collect(),
        ordered: (0..len(rng))
            .map(|_| (text(rng), Arc::new(vec![rng.next_u64(); len(rng)])))
            .collect(),
        stalls: (0..len(rng))
            .map(|_| {
                use HeadStall::{Backpressure, HitWait, MemStall, Progress};
                [Progress, HitWait, Backpressure, MemStall][rng.gen_range(4) as usize]
            })
            .collect(),
        shape,
    }
}

fn saved(v: &Everything) -> Vec<u8> {
    let mut w = StateWriter::new("prop", 1);
    v.save(&mut w);
    w.finish()
}

/// The payload of an artefact written by [`saved`]: what lies between
/// the header (magic, name length, name, version) and the checksum.
fn payload(bytes: &[u8]) -> &[u8] {
    &bytes[8 + 4 + "prop".len() + 4..bytes.len() - 8]
}

/// A validly-signed artefact around an arbitrary payload.
fn signed(payload: &[u8]) -> Vec<u8> {
    let mut w = StateWriter::new("prop", 1);
    payload.iter().for_each(|&b| w.u8(b));
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_blanket_impl_round_trips_bitwise(seed in 0u64..1_000_000, shape in 0usize..5) {
        let mut rng = SimRng::seed_from(seed);
        let value = random(shape, &mut rng);
        let bytes = saved(&value);
        prop_assert_eq!(&signed(payload(&bytes)), &bytes, "test helper re-signs faithfully");

        // A target of the same shape and otherwise unrelated content ends
        // up writing the very same bytes.
        let mut target = random(shape, &mut rng);
        let mut r = StateReader::new(&bytes, "prop", 1).unwrap();
        target.restore(&mut r).unwrap();
        r.finish().unwrap();
        prop_assert_eq!(saved(&target), bytes);
    }

    #[test]
    fn no_truncated_payload_restores(seed in 0u64..1_000_000, shape in 0usize..5) {
        let mut rng = SimRng::seed_from(seed);
        let bytes = saved(&random(shape, &mut rng));
        let payload = payload(&bytes);
        for cut in 0..payload.len() {
            let short = signed(&payload[..cut]);
            let mut r = StateReader::new(&short, "prop", 1).unwrap();
            let mut target = random(shape, &mut rng);
            prop_assert!(target.restore(&mut r).is_err(), "cut at {} of {}", cut, payload.len());
        }
    }

    #[test]
    fn a_target_of_another_shape_is_refused(seed in 0u64..1_000_000, shape in 0usize..5) {
        let mut rng = SimRng::seed_from(seed);
        let bytes = saved(&random(shape, &mut rng));
        let mut other = random(shape + 1, &mut rng);
        let mut r = StateReader::new(&bytes, "prop", 1).unwrap();
        let err = other.restore(&mut r).unwrap_err().to_string();
        prop_assert!(err.starts_with("corrupt: Everything.shape: stored "), "{}", err);
    }
}
