//! A scan keeps every point's own schedule, whatever the chunking.
//!
//! `SweepRunner::scan_into` copies each point's angles into a flat chunk
//! buffer. One scan here mixes p = 0, 1 and 3 points within chunks, has
//! first γ values of `+0.0`, `-0.0` and NaNs with fixed bits (so runs split
//! on bits), and one point mid-scan whose γ and β lengths differ. It runs
//! at chunk sizes 1, 3, 7 and one larger than the scan, on a serial runner
//! and on 2- and 4-worker points-parallel pools. Every energy the sink
//! observes must have the bits `energies_checked` gives for that point,
//! and the scan must stop with that point's `PointPanicked` error, at its
//! global index, after the chunk holding it.

use qokit::core::batch::SweepError;
use qokit::prelude::*;
use qokit::terms::labs::labs_terms;

/// Index of the point whose γ and β lengths differ: inside a chunk at
/// every chunk size but 1.
const BAD: usize = 31;
const LEN: usize = 40;
const CHUNKS: [usize; 4] = [1, 3, 7, LEN + 1];

fn p0() -> SweepPoint {
    SweepPoint::new(vec![], vec![])
}

fn p3(gamma: f64, i: usize) -> SweepPoint {
    let t = 0.01 * i as f64;
    SweepPoint::new(vec![gamma, 0.2 + t, -0.3], vec![0.4, 0.1 - t, 0.25])
}

/// The scan's points, with a well-formed point at `BAD` when `poisoned`
/// is false.
fn points(poisoned: bool) -> Vec<SweepPoint> {
    let nan = f64::from_bits(0x7ff8_0000_0000_0bad);
    let other_nan = f64::from_bits(0x7ff8_0000_0000_0001);
    let mut points = vec![
        SweepPoint::p1(0.0, 0.3),
        p3(0.0, 1),
        SweepPoint::p1(-0.0, 0.3),
        SweepPoint::p1(-0.0, 0.5),
        p3(-0.0, 4),
        p0(),
        p0(),
        SweepPoint::p1(nan, 0.2),
        SweepPoint::p1(nan, 0.4),
        p3(nan, 9),
        SweepPoint::p1(other_nan, 0.4),
    ];
    points.extend((points.len()..LEN).map(|i| {
        let gamma = 0.1 * (i / 4) as f64 - 0.5;
        match i % 5 {
            0 | 3 => p3(gamma, i),
            4 => p0(),
            _ => SweepPoint::p1(gamma, 0.05 * i as f64),
        }
    }));
    if poisoned {
        points[BAD] = SweepPoint::new(vec![0.2, 0.3], vec![0.1]);
    }
    points
}

/// Every observation, in order, as `(index, energy bits)`.
#[derive(Default)]
struct Record(Vec<(u64, u64)>);

impl EnergySink for Record {
    fn observe(&mut self, index: u64, energy: f64) {
        self.0.push((index, energy.to_bits()));
    }
}

fn runners() -> Vec<(&'static str, SweepRunner)> {
    let runner = |exec: ExecPolicy| {
        SweepRunner::with_options(
            FurSimulator::new(&labs_terms(6)),
            SweepOptions {
                exec,
                nested: SweepNesting::PointsParallel,
            },
        )
    };
    vec![
        ("serial", runner(ExecPolicy::serial())),
        ("2 workers", runner(ExecPolicy::rayon().with_threads(2))),
        ("4 workers", runner(ExecPolicy::rayon().with_threads(4))),
    ]
}

/// The observations a scan that evaluates its first `evaluated` points
/// must make: each well-formed one, in order, with its `reference` bits.
fn expected(reference: &[Result<f64, SweepError>], evaluated: usize) -> Vec<(u64, u64)> {
    reference[..evaluated]
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().ok().map(|e| (i as u64, e.to_bits())))
        .collect()
}

#[test]
fn flat_chunks_keep_each_points_schedule_and_bits() {
    let (poisoned, clean) = (points(true), points(false));
    for (name, runner) in runners() {
        let poisoned_ref = runner.energies_checked(&poisoned);
        let clean_ref = runner.energies_checked(&clean);
        assert!(clean_ref.iter().all(Result::is_ok), "{name}");
        let want_err = poisoned_ref[BAD].clone().unwrap_err();
        assert!(
            matches!(&want_err, SweepError::PointPanicked { index: BAD, .. }),
            "{name}: {want_err:?}"
        );
        for chunk in CHUNKS {
            let mut seen = Record::default();
            let got = runner.scan_into(poisoned.clone(), chunk, &mut seen);
            assert_eq!(got, Err(want_err.clone()), "{name}, chunk {chunk}");
            let evaluated = (BAD / chunk + 1).saturating_mul(chunk).min(LEN);
            assert_eq!(
                seen.0,
                expected(&poisoned_ref, evaluated),
                "{name}, chunk {chunk}"
            );

            let mut seen = Record::default();
            let got = runner.scan_into(clean.clone(), chunk, &mut seen);
            assert_eq!(got, Ok(LEN as u64), "{name}, chunk {chunk}");
            assert_eq!(seen.0, expected(&clean_ref, LEN), "{name}, chunk {chunk}");
        }
    }
}
