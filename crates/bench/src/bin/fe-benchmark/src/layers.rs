//! Leaf layers timed on their own, on seeded inputs of the shapes the
//! workloads send: crypto and big-integer primitives, the sketch and
//! fuzzy-extractor steps, and the codecs against in-memory buffers.
//! Each workload calls only the groups that are on its request path.

use crate::gen::DIM;
use crate::report::Report;
use crate::stats;
use fe_core::codec::{Reader, Writer};
use fe_crypto::sig::SignatureScheme;
use fe_net::envelope::{self, ResponseBody};
use fe_net::frame::{read_frame, write_frame};
use fe_net::DEFAULT_MAX_FRAME;
use fe_protocol::store::{get_record, put_record, EnrollmentStore, FileStore, LogEventRef};
use fe_protocol::wire::{self, Message};
use fe_protocol::{BiometricDevice, EnrollmentRecord, IdentChallenge, SystemParams};
use rand::rngs::StdRng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Median over `reps` timings of `inner` back-to-back calls of `f`, in
/// µs per call.
pub fn median_us(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    stats::median((0..reps).map(|_| {
        let start = Instant::now();
        for _ in 0..inner {
            f();
        }
        start.elapsed().as_secs_f64() * 1e6 / inner as f64
    }))
}

/// What the traced login does not already cover: one modular
/// exponentiation, `Gen`, and the device's whole enrollment.
pub fn device_and_crypto(report: &mut Report, params: &SystemParams, rng: &mut StdRng) {
    let dsa = params.dsa();
    let domain = params.dsa_params();
    let (_sk, vk) = dsa.keypair_from_seed(b"fe-benchmark layers");
    // One Montgomery modpow as DSA uses it: a 1024-bit base to a
    // 160-bit exponent modulo p.
    report.set(
        "bigint.modpow_us",
        median_us(64, 1, || {
            black_box(black_box(vk.y()).mod_pow(domain.q(), domain.p()));
        }),
    );

    let scheme = params.sketch();
    let fe = params.fuzzy_extractor();
    let device = BiometricDevice::new(params.clone());
    let bio = scheme.line().random_vector(DIM, rng);
    report.set(
        "core.sketch.gen_us",
        median_us(256, 1, || {
            black_box(fe.generate(&bio, rng).expect("generate"));
        }),
    );
    report.set(
        "protocol.device.enroll_us",
        median_us(64, 1, || {
            black_box(device.enroll("layer", &bio, rng).expect("enroll"));
        }),
    );
}

/// `protocol.wire.*` and `net.codec.*`: one `Identify` request and one
/// challenge response through the message codec alone, then through
/// envelope + frame against an in-memory buffer.
pub fn wire_codecs(report: &mut Report, probe: &[i64], challenge: &IdentChallenge) {
    let identify = Message::Identify {
        probe: probe.to_vec(),
    };
    let reply = Message::Challenge(challenge.clone());
    let identify_bytes = wire::encode(&identify);
    let reply_bytes = wire::encode(&reply);
    report.set("protocol.wire.identify_bytes", identify_bytes.len() as f64);
    report.set("protocol.wire.challenge_bytes", reply_bytes.len() as f64);
    report.set(
        "protocol.wire.encode_us",
        median_us(256, 8, || {
            black_box(wire::encode(&identify));
            black_box(wire::encode(&reply));
        }),
    );
    report.set(
        "protocol.wire.decode_us",
        median_us(256, 8, || {
            black_box(wire::decode(&identify_bytes).expect("decode identify"));
            black_box(wire::decode(&reply_bytes).expect("decode challenge"));
        }),
    );

    // A request as the client writes it and the server reads it.
    let mut buffer = Vec::with_capacity(4096);
    let mut request_round = || {
        buffer.clear();
        let envelope = envelope::encode_request(7, &identify);
        write_frame(&mut buffer, &envelope, DEFAULT_MAX_FRAME).expect("frame request");
        let payload = read_frame(&mut buffer.as_slice(), DEFAULT_MAX_FRAME).expect("unframe");
        let (_id, message) = envelope::decode_request(&payload).expect("decode request");
        black_box(message.expect("a well-formed identify"));
        buffer.len()
    };
    report.set("net.codec.request_bytes", request_round() as f64);
    report.set(
        "net.codec.request_us",
        median_us(256, 8, || {
            request_round();
        }),
    );
    // A response as the server writes it and the client reads it.
    let body = Ok(ResponseBody::Challenge(challenge.clone()));
    let mut buffer = Vec::with_capacity(4096);
    let mut response_round = || {
        buffer.clear();
        let envelope = envelope::encode_response(7, &body);
        write_frame(&mut buffer, &envelope, DEFAULT_MAX_FRAME).expect("frame response");
        let payload = read_frame(&mut buffer.as_slice(), DEFAULT_MAX_FRAME).expect("unframe");
        let (_id, response) = envelope::decode_response(&payload).expect("decode response");
        black_box(response.expect("a challenge"));
        buffer.len()
    };
    report.set("net.codec.response_bytes", response_round() as f64);
    report.set(
        "net.codec.response_us",
        median_us(256, 8, || {
            response_round();
        }),
    );
}

/// `core.codec.*`: one enrollment record through the durable record
/// codec.
pub fn record_codec(report: &mut Report, record: &EnrollmentRecord) {
    let mut writer = Writer::new();
    put_record(&mut writer, record);
    let bytes = writer.as_slice().to_vec();
    report.set("core.codec.record_bytes", bytes.len() as f64);
    report.set(
        "core.codec.record_encode_us",
        median_us(256, 8, || {
            writer.clear();
            put_record(&mut writer, record);
            black_box(writer.as_slice());
        }),
    );
    report.set(
        "core.codec.record_decode_us",
        median_us(256, 8, || {
            black_box(get_record(&mut Reader::new(&bytes)).expect("decode record"));
        }),
    );
}

/// `protocol.store.*`: a `FileStore` of its own in `dir`, driven
/// through `EnrollmentStore` with `records`: appends one by one (no
/// fsync, the store's default), a compaction of all of them, and a
/// load of the compacted store.
pub fn file_store(
    report: &mut Report,
    params: &SystemParams,
    dir: &Path,
    records: &[EnrollmentRecord],
) {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = FileStore::open(dir, params.fingerprint()).expect("open a file store");
    let mut next = records.iter();
    report.set(
        "protocol.store.append_us",
        median_us(records.len(), 1, || {
            let record = next.next().expect("one record per repetition");
            store
                .append(LogEventRef::Enroll(record))
                .expect("append to the journal");
        }),
    );
    let journal = std::fs::metadata(dir.join("journal.fel")).expect("stat the journal");
    report.set(
        "protocol.store.journal_bytes_per_event",
        journal.len() as f64 / records.len() as f64,
    );
    let start = Instant::now();
    store.compact_records(records).expect("compact the store");
    report.set("protocol.store.checkpoint_s", start.elapsed().as_secs_f64());
    drop(store);
    let start = Instant::now();
    let mut store = FileStore::open(dir, params.fingerprint()).expect("reopen the file store");
    let events = store.load().expect("load the store");
    report.set("protocol.store.load_s", start.elapsed().as_secs_f64());
    assert_eq!(events.len(), records.len(), "the store lost records");
    drop(store);
    std::fs::remove_dir_all(dir).expect("remove the layer's store");
}
