//! Property-based tests for the power-infrastructure models.

use powersim::breaker::{BreakerSpec, CircuitBreaker};
use powersim::cpu::{CoreRole, FreqScale};
use powersim::rack::{server_power, CoreId, Rack};
use powersim::server::{LinearServerModel, ServerSpec};
use powersim::supercap::{HybridStorage, Supercap, SupercapSpec};
use powersim::units::{NormFreq, Seconds, Utilization, Watts};
use powersim::ups::{DutyCycleDischarger, UpsBattery, UpsSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Server power is always inside the calibrated [idle, full] envelope
    /// and monotone under a uniform frequency raise.
    #[test]
    fn server_power_envelope_and_monotonicity(
        freqs in proptest::collection::vec(0.2f64..=1.0, 8),
        utils in proptest::collection::vec(0.0f64..=1.0, 8),
        bump in 0.0f64..0.3,
    ) {
        let spec = ServerSpec::paper_default();
        let power = |f: &[f64]| server_power(&spec, [(&f[..4], &utils[..4]), (&f[4..], &utils[4..])]);
        let p = power(&freqs);
        prop_assert!((150.0 - 1e-9..=300.0 + 1e-9).contains(&p), "p={p}");
        // Raise every core's frequency: power must not decrease.
        let raised: Vec<f64> = freqs.iter().map(|f| (f + bump).min(1.0)).collect();
        prop_assert!(power(&raised) >= p - 1e-9);
    }

    /// The linear controller model brackets the plant within a bounded
    /// relative error across the whole DVFS range at its fit utilization.
    #[test]
    fn linear_model_error_bounded(f in 0.2f64..=1.0) {
        let spec = ServerSpec::paper_default();
        let m = LinearServerModel::fit(&spec, 4, Utilization(0.95));
        let pred = m.predict(NormFreq(f)).0;
        prop_assert!(pred > 0.0);
        // The §V-C stability margin tolerates up to ~3× gain error; the
        // static fit is far inside that.
        let k_local = m.k;
        prop_assert!(k_local > 20.0 && k_local < 120.0, "k={k_local}");
    }

    /// Breaker trip time is antitone in overload and the thermal state
    /// machine is consistent with the closed-form curve.
    #[test]
    fn breaker_trip_time_matches_state_machine(o in 1.02f64..3.0) {
        let spec = BreakerSpec::paper_default();
        let closed_form = spec.trip_time(o).0;
        let mut cb = CircuitBreaker::new(spec);
        let mut t = 0.0;
        let dt = 0.25;
        loop {
            if cb.step(Watts(3200.0 * o), Seconds(dt)).tripped {
                break;
            }
            t += dt;
            prop_assert!(t < closed_form + 5.0, "state machine slower than curve");
        }
        prop_assert!((t + dt - closed_form).abs() <= dt + 1e-6,
            "tripped at {t} vs curve {closed_form}");
    }

    /// Duty-cycle realization error is bounded by half a duty step of the
    /// total power, always.
    #[test]
    fn duty_cycle_error_bound(
        target in 0.0f64..6000.0,
        total in 1.0f64..6000.0,
        step in 0.001f64..0.2,
    ) {
        let d = DutyCycleDischarger::new(step);
        let got = d.realize(Watts(target), Watts(total));
        let capped = target.min(total);
        prop_assert!(got.0 >= 0.0 && got.0 <= total + 1e-9);
        prop_assert!((got.0 - capped).abs() <= total * step / 2.0 + 1e-9);
    }

    /// Hybrid storage never creates energy: battery cells + cap draw
    /// always cover what was delivered (efficiencies only lose).
    #[test]
    fn hybrid_storage_first_law(
        demands in proptest::collection::vec(0.0f64..3000.0, 1..300),
    ) {
        let mut h = HybridStorage::new(
            UpsBattery::full(UpsSpec::paper_default()),
            Supercap::full(SupercapSpec::paper_default()),
        );
        let mut delivered = 0.0;
        for &d in &demands {
            let out = h.discharge(Watts(d), Seconds(1.0));
            prop_assert!(out.delivered.0 <= d + 1e-9);
            delivered += out.delivered.over(Seconds(1.0)).0;
        }
        let sourced = h.battery.total_cell_energy_out.0 + h.cap.total_out.0;
        prop_assert!(sourced >= delivered - 1e-6,
            "sourced {sourced} must cover delivered {delivered}");
    }

    /// The batched SoA power pass, `server_power` per server, is
    /// bit-identical to the rack's scalar per-core reference over the
    /// same lane state.
    #[test]
    fn rack_power_is_bit_identical_to_its_scalar_reference(
        utils in proptest::collection::vec(0.0f64..=1.0, 32),
        freqs in proptest::collection::vec(0.2f64..=1.0, 32),
    ) {
        let mut rack = Rack::new(ServerSpec::paper_default(), 4, 4).unwrap();
        rack.set_freq_scale(FreqScale::continuous());
        for s in 0..4 {
            for c in 0..8 {
                let id = CoreId { server: s, core: c };
                let i = s * 8 + c;
                rack.set_freq(id, NormFreq(freqs[i]));
                rack.set_util(id, Utilization(utils[i]));
            }
        }
        let total = rack.power().0;
        prop_assert_eq!(total.to_bits(), rack.power_reference().0.to_bits());
    }

    /// `Rack::set_all_freqs`, the role-block write of a rack-order
    /// command, lands every lane on the bits of one `Rack::set_freq` per
    /// core: on every rack shape, on stepped, continuous and beyond-peak
    /// ladders, and with NaN and ±∞ lanes, which hold.
    #[test]
    fn set_all_freqs_is_bitwise_per_core_set_freq(
        servers in 1usize..=6,
        ipc in 0usize..=8,
        ladder in 0usize..3,
        start in proptest::collection::vec(-0.5f64..=1.5, 1..16),
        picks in proptest::collection::vec(0usize..12, 1..64),
        wants in proptest::collection::vec(-0.5f64..=1.5, 1..64),
    ) {
        let mut rack = Rack::new(ServerSpec::paper_default(), servers, ipc).unwrap();
        rack.set_freq_scale(match ladder {
            0 => FreqScale::paper_default(),
            1 => FreqScale::continuous(),
            _ => FreqScale { min: NormFreq(0.1), max: NormFreq(1.3), step: 0.07, peak_mhz: 2600.0 },
        });
        // Distinct off-ladder lanes, so a held or misrouted lane shows.
        for role in [CoreRole::Interactive, CoreRole::Batch] {
            let offset = rack.role_range(role).start;
            for (k, f) in rack.role_mut(role).freqs.iter_mut().enumerate() {
                *f = start[(offset + k) % start.len()] + (offset + k) as f64 * 1e-6;
            }
        }
        let cmd: Vec<NormFreq> = (0..rack.num_cores())
            .map(|i| match picks[i % picks.len()] {
                0 => NormFreq(f64::NAN),
                1 => NormFreq(f64::INFINITY),
                2 => NormFreq(f64::NEG_INFINITY),
                _ => NormFreq(wants[i % wants.len()]),
            })
            .collect();
        let mut want = rack.clone();
        let cps = rack.cores_per_server();
        for (i, &f) in cmd.iter().enumerate() {
            want.set_freq(CoreId { server: i / cps, core: i % cps }, f);
        }
        rack.set_all_freqs(&cmd);
        let bits = |r: &Rack| r.state().freq.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&rack), bits(&want));
    }

    /// Frequency quantization always lands on a representable state
    /// inside the ladder, at most half a step from the clamped request.
    #[test]
    fn quantization_contract(f in -0.5f64..1.5) {
        let scale = FreqScale::paper_default();
        let q = scale.quantize(NormFreq(f)).0;
        prop_assert!(q >= scale.min.0 - 1e-12 && q <= scale.max.0 + 1e-12);
        let steps = (q - scale.min.0) / scale.step;
        prop_assert!((steps - steps.round()).abs() < 1e-9, "off-ladder {q}");
        let clamped = f.clamp(scale.min.0, scale.max.0);
        prop_assert!((q - clamped).abs() <= scale.step / 2.0 + 1e-12);
    }
}
