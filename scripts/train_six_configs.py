"""Train and audit the six standard metric-weight configurations.

Produces one summary row per configuration: scalarized objective F,
monotonicity T_m, mean payment error ratio, single-slot i-SIC, the
selected iteration and the selected baseline, the actor's base.

Usage: python scripts/train_six_configs.py [out_dir]
"""

import sys

from gsplab.audit import (
    AuditConfig,
    audit_states,
    i_sic,
    monotonicity_metric,
    payment_error_rate,
    single_slot_world,
)
from gsplab.auction import DeepGspMechanism
from gsplab.simulator import World, WorldConfig
from gsplab.trainer import TrainConfig, train, write_report_csv

WEIGHT_CONFIGS = (
    (1.0, 0.0, 0.0, 0.0, 0.0),
    (0.5, 0.5, 0.0, 0.0, 0.0),
    (0.5, 0.0, 0.5, 0.0, 0.0),
    (0.5, 0.0, 0.0, 0.5, 0.0),
    (0.5, 0.0, 0.0, 0.0, 0.5),
    (0.6, 0.1, 0.1, 0.1, 0.1),
)


HEADER = ("weights                     F        T_m      PER      i-SIC"
          "    iter  base")


def summary_line(weights, result, world, one_slot, states, audit_cfg):
    """One configuration's printed row, from its TrainResult."""
    mech = DeepGspMechanism(result.actor)
    tm = monotonicity_metric(result.actor, states, audit_cfg).t_m
    per = payment_error_rate(world, mech, audit_cfg).mean
    ic = i_sic(mech, one_slot, audit_cfg).value
    label = ",".join(f"{w:g}" for w in weights)
    return (f"({label:22s})  {result.final_objective:.4f}   {tm:.4f}"
            f"   {per:.4f}   {ic:.4f}   {result.selected_iter:4d}"
            f"  {result.actor.base}")


def main(out_dir="out/six_configs"):
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    world = World(WorldConfig(seed=1))
    one_slot = single_slot_world(world)
    audit_cfg = AuditConfig(alpha=0.01, isic_rounds=12_500, seed=3)
    states = audit_states(world, audit_cfg)

    print(HEADER)
    for k, weights in enumerate(WEIGHT_CONFIGS):
        cfg = TrainConfig(weights=weights, seed=3)
        result = train(world, cfg)
        print(summary_line(weights, result, world, one_slot, states,
                           audit_cfg))
        result.actor.save(out / f"actor_{k}.ckpt")
        write_report_csv(out / f"report_{k}.csv", result.report)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
