#!/bin/sh
# Shell version of demo 01: each pipeline stage is one subcommand, so the
# whole experiment is a short script with inspectable intermediate files.
set -e
work=$(mktemp -d)
echo "working in $work"

cat > "$work/opt.json" <<'EOF'
{"loss": "mean-squared"}
EOF

symfield gen --name gaussian-quadratic --size 2000 --seed 0 --out "$work/data.csv"
symfield fit-fn --data "$work/data.csv" --degree 2 --out "$work/f.json"
symfield find-vf --model "$work/f.json" --data "$work/data.csv" \
    --vf-degree 1 --c 1 --opt-config "$work/opt.json" \
    --out "$work/field.json" --trace-out "$work/trace.json"
symfield flow --field "$work/field.json" --x0 2,1 --t 3 --steps 3000 \
    --out "$work/trajectory.csv"

echo "--- fitted function ---"
head -c 400 "$work/f.json"; echo
echo "--- annihilation loss ---"
cat "$work/trace.json"
echo "--- flow endpoints ---"
sed -n '2p;$p' "$work/trajectory.csv"
