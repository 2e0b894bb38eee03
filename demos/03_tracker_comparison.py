"""Run the hard-assignment and soft-assignment trackers on the same
spoofed stream and compare what the metrics see.

The ghost cloud here hugs the platforms (near_track mode with a small
offset), which is the regime where the two association styles part
ways: the hard tracker commits each ghost to at most one track, the
soft tracker lets every ghost pull on every nearby track a little.
The second half of the demo isolates that mechanism with a single
track and a growing pile of equally-plausible detections.
"""

import numpy as np

from spoofbench import (
    Detection,
    DetectionFrame,
    SensorConfig,
    SpoofConfig,
    SpoofType,
    TrackerParams,
    apply_spoof,
    association_probabilities,
    build_scenario,
    compute_run_report,
    default_scenario_config,
    estimate_from_detection,
    gate,
    generate_clean_run,
    gnn_step,
    jpda_step,
    run_tracker,
)

WINDOW = (10, 90)


def one_run(frames, truth, spoofed_run, sensor, scenario, step_fn, name):
    params = TrackerParams(
        dt_s=scenario.dt_s,
        p_detect=sensor.p_detect,
        clutter_density=sensor.clutter_rate / sensor.fov.area,
    )
    run = run_tracker(frames, params, step_fn, birth_seed=0)
    return compute_run_report(
        run, truth, spoofed_run,
        tracker_name=name, spoof_name="ghost", seed=0,
        config_digest="demo", noise_sigma_m=sensor.noise_sigma_m,
    )


def main():
    scenario = default_scenario_config()
    truth = build_scenario(scenario)
    sensor = SensorConfig()
    clean = generate_clean_run(truth, sensor, seed=0)

    spoofed = apply_spoof(clean, SpoofConfig(
        spoof_type=SpoofType.GHOST,
        injection_window=WINDOW,
        ghost_rate=8.0,
        ghost_mode="near_track",
        ghost_radius_m=8.0,
        ghost_offset_m=15.0,
        ghost_offset_dir=(1.0, 0.0),
        ghost_sigma_m=sensor.noise_sigma_m,
        seed=3,
    ))
    n_ghost = sum(1 for f in spoofed.spoofed_frames for d in f.detections
                  if d.label == "spoof:ghost")
    print(f"ghost cloud riding 15 m off the platforms: {n_ghost} injected detections\n")

    reports = {
        name: one_run(spoofed.spoofed_frames, truth, spoofed, sensor, scenario, fn, name)
        for name, fn in (("gnn", gnn_step), ("jpda", jpda_step))
    }
    header = f"{'metric':24s} {'gnn':>10s} {'jpda':>10s}"
    print(header)
    print("-" * len(header))
    for label, attr in (
        ("mean drift (m)", "mean_drift_m"),
        ("max drift (m)", "max_drift_m"),
        ("normalized impact (%)", "normalized_impact_pct"),
        ("track switches", "switch_count"),
        ("spoof inclusion rate", "spoof_inclusion_rate"),
        ("recovery rate", "recovery_rate"),
        ("false attribution", "false_association_ratio"),
    ):
        row = [getattr(reports[n], attr) for n in ("gnn", "jpda")]
        cells = [f"{v:10.3f}" if isinstance(v, float) else f"{v:10d}" for v in row]
        print(f"{label:24s} {cells[0]} {cells[1]}")

    # soft-assignment dilution in isolation: one track, k interchangeable
    # detections at the predicted position, watch the top weight fall
    print("\nassociation weight of the best detection vs gate crowding:")
    params = TrackerParams(clutter_density=2.0 / 1200.0 ** 2)
    seed_det = Detection(t=0, detection_id=0, z=np.array([0.0, 0.0]),
                         R=np.eye(2) * 25.0, label="clutter")
    predicted = estimate_from_detection(seed_det.z, seed_det.R)
    for k in (1, 2, 4, 8):
        dets = [
            Detection(t=1, detection_id=i, z=np.array([0.0, 0.0]),
                      R=np.eye(2) * 25.0, label="clutter")
            for i in range(k)
        ]
        gated = gate(DetectionFrame(t=1, detections=tuple(dets)), predicted)
        miss, betas = association_probabilities(gated, params)
        top = max(betas.values())
        print(f"  {k} detections in gate: top beta {top:.3f}, miss {miss:.3f}, "
              f"sum {top * k + miss:.3f}")


if __name__ == "__main__":
    main()
