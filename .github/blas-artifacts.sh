#!/usr/bin/env bash
# Artifacts do not depend on the BLAS thread count.  A command runs numpy's
# BLAS on one thread unless OPENBLAS_NUM_THREADS is set; with four, every
# artifact of the nine commands at defaults must keep its bytes.  Under
# both settings, each artifact but amoeba.json (whose witness residual is
# rounding noise) must also equal its reference in tests/golden/; every
# file that differs is named before the script fails.
#
# Run from the repository root, writing into the directory DIR:
#   bash -eo pipefail .github/blas-artifacts.sh DIR
# To re-pin the references, copy every file of DIR/blas but amoeba.json to
# tests/golden/.
set -eo pipefail
root="${1:?usage: blas-artifacts.sh DIR}"
for threads in "" 4; do
  dir="$root/blas$threads"
  mkdir -p "$dir"
  for cmd in verify-flat verify-taubnut ov ronkin amoeba legendre \
             holonomy decay collapse; do
    art=("--out" "$dir/$cmd.json")
    case "$cmd" in
      ov|ronkin|collapse) art+=("--csv" "$dir/$cmd.csv") ;;
      decay) art+=("--csv" "$dir/$cmd.csv" "--svg" "$dir/$cmd.svg") ;;
    esac
    env ${threads:+OPENBLAS_NUM_THREADS=$threads} PYTHONPATH=src \
      python -m ghlab.cli "$cmd" "${art[@]}" > /dev/null
  done
done
test "$(ls "$root/blas" | wc -l)" -eq 14
for f in "$root"/blas/*; do
  cmp "$f" "$root/blas4/${f##*/}"
done
test "$(ls tests/golden | wc -l)" -eq 13
status=0
for f in "$root"/blas/* "$root"/blas4/*; do
  name="${f##*/}"
  test "$name" = amoeba.json || cmp "$f" "tests/golden/$name" || status=1
done
exit "$status"
