"""Force two independent segments and watch the parser find the seam.

Block-diagonal attention makes positions left and right of a boundary
invisible to each other at every layer.  The two segment spans then encode
identically with and without their context, their invariance scores drop to
exactly zero, and the first greedy split has nowhere better to land than the
boundary.  The perturbation analysis tells the same story causally: noise
injected across the boundary never moves a span (delta_oc == 0), noise inside
does (delta_ic > 0).
"""

import numpy as np

from spantree.datasets import Vocab
from spantree.encoder import EncoderConfig, LayerMask, TransformerModel
from spantree.experiments import perturbation_analysis
from spantree.projector import greedy_project
from spantree.spanrep import build_sci_chart

vocab = Vocab([f"w{i}" for i in range(25)])
config = EncoderConfig(enc_layers=2, dec_layers=1, heads=2, d_model=24,
                       d_ff=48, vocab_size=len(vocab), max_len=16)
model = TransformerModel(config, vocab, "seq2seq", rng=11)  # untrained on purpose
rng = np.random.default_rng(77)

print("first greedy split under a hard two-segment mask (20 random sentences):")
hits = 0
for trial in range(20):
    n = int(rng.integers(5, 13))
    boundary = int(rng.integers(2, n - 1))
    tokens = rng.integers(5, len(vocab), size=n).tolist()
    mask = LayerMask.block_diagonal(boundary, n)
    chart = build_sci_chart(model, tokens, t=0, contextual_mask=mask)
    first = greedy_project(chart, rng=trial).split_trace[0]
    ok = first.k == boundary - 1
    hits += ok
    seam = "|".join(["." * boundary, "." * (n - boundary)])
    print(f"  n={n:2d} {seam:>14}  predicted split after {first.k + 1:2d} "
          f"{'ok' if ok else 'MISS'}")
print(f"{hits}/20 splits on the seam\n")

print("perturbation arms, 200 pairs, sigma^2 = 0.01:")
sentences = [rng.integers(5, len(vocab), size=4).tolist() for _ in range(6)]
report = perturbation_analysis(
    model, sentences, [((0, 1), (2, 3))] * 6, sigma2=0.01, pairs=200, seed=4,
    masks=[LayerMask.block_diagonal(2, 4)] * 6,
)
arm = report.main
print(f"  inside-constituent shift  delta_ic = {arm.delta_ic:.6f}")
print(f"  outside-constituent shift delta_oc = {arm.delta_oc:.6f}")
print(f"  welch t = {arm.t_stat:.1f}, p = {arm.p_value:.2e}")
