#!/bin/sh
# Shell version of demo 01: each pipeline stage is one subcommand, so the
# whole experiment is a short script with inspectable intermediate files.
set -e
work=$(mktemp -d)
echo "working in $work"

cat > "$work/opt.json" <<'EOF'
{"loss": "mean-squared"}
EOF
# the closed-form generator (4 - 4y) d/dx + (x - 1) d/dy over (1, x, y)
cat > "$work/truth.json" <<'EOF'
{"type": "basisfield", "components": [
  {"basis": {"dimension": 2, "atoms": [{"kind": "monomial", "exponents": [0, 0]},
    {"kind": "monomial", "exponents": [1, 0]}, {"kind": "monomial", "exponents": [0, 1]}]},
   "coefficients": [4.0, 0.0, -4.0]},
  {"basis": {"dimension": 2, "atoms": [{"kind": "monomial", "exponents": [0, 0]},
    {"kind": "monomial", "exponents": [1, 0]}, {"kind": "monomial", "exponents": [0, 1]}]},
   "coefficients": [-1.0, 1.0, 0.0]}]}
EOF

symfield gen --name gaussian-quadratic --size 2000 --seed 0 --out "$work/data.csv"
symfield fit-fn --data "$work/data.csv" --degree 2 --out "$work/f.json"
symfield find-vf --model "$work/f.json" --data "$work/data.csv" \
    --vf-degree 1 --c 1 --opt-config "$work/opt.json" \
    --out "$work/field.json" --trace-out "$work/trace.json"
symfield sim --truth "$work/truth.json" --estimate "$work/field.json" \
    --data "$work/data.csv" --out "$work/sim.json"
symfield flow --field "$work/field.json" --x0 2,1 --t 3 --steps 3000 \
    --out "$work/trajectory.csv"

echo "--- fitted function ---"
head -c 400 "$work/f.json"; echo
echo "--- annihilation loss ---"
cat "$work/trace.json"
echo "--- similarity to (4 - 4y, x - 1) ---"
cat "$work/sim.json"
echo "--- flow endpoints ---"
sed -n '2p;$p' "$work/trajectory.csv"
