#!/bin/sh
# One full-scale topology: the optimised allocation with the power equality
# system dumped for inspection, the same schedule with optimised noise (its
# allocation.csv carries each user's privacy loss, rho), and the replica's
# bounds.csv row per algorithm.
# Usage: scripts/show_allocation.sh [out_dir] [seed]
set -e
out=${1:-results/allocation}
seed=${2:-0}
fedcell-sim schedule --config configs/full_scale_r5.yaml --algorithm opt \
    --seed "$seed" --out "$out/opt" --dump-system
fedcell-sim schedule --config configs/full_scale_r5.yaml --algorithm opt+dp \
    --seed "$seed" --out "$out/opt_dp"
fedcell-sim run --config configs/full_scale_r5.yaml --replicas 1 --seed "$seed" \
    --out "$out/run"
echo "wrote $out"
