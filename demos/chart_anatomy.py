"""Walk one sentence through the whole invariance pipeline, slowly.

We train a deliberately tiny transducer just long enough for structure to
emerge, then for a single sentence:

  * build the span-invariance chart at a couple of thresholds,
  * print the upper-triangular chart so you can see which spans went quiet,
  * project the chart to a binary tree with the greedy splitter and with the
    exact O(n^3) dynamic program, and compare their cumulative scores.

Runs in well under a minute on a laptop CPU.  No files are written.
"""

import numpy as np

from spantree.datasets import DEFAULT_UNSEEN, generate_expressions, make_cg_split
from spantree.encoder import EncoderConfig
from spantree.projector import cumulative_sci, exact_project, greedy_project
from spantree.spanrep import build_sci_chart
from spantree.training import train_seq2seq
from spantree.treeval import to_sexpr


def show_chart(chart, tokens):
    """Print the upper triangle; row i holds spans starting at token i."""
    n = chart.n
    head = "        " + "  ".join(f"{t:>5}" for t in tokens)
    print(head)
    for i in range(n):
        cells = []
        for j in range(n):
            cells.append(f"{chart.values[i, j]:5.2f}" if j >= i else "     ")
        print(f"  {tokens[i]:>5} " + "  ".join(cells))


def main():
    # a few hundred steps on a few hundred expressions is enough for the
    # charts to stop looking like noise
    examples = generate_expressions(400, depth_range=(1, 3), seed=7, alphabet_size=8)
    corpus = make_cg_split(examples, DEFAULT_UNSEEN, seed=7, val_frac=0.1)
    config = EncoderConfig(
        enc_layers=2, dec_layers=1, heads=2, d_model=16, d_ff=64,
        vocab_size=len(corpus.vocab), max_len=40,
    )
    print("training a tiny transducer (600 steps) ...")
    series = train_seq2seq(
        config, corpus, steps=600, checkpoint_every=300, seed=0,
        batch_size=32, base_lr=1e-3, warmup_steps=60, eval_limit=40,
    )
    model = series[-1].model
    print(f"  final iid accuracy {series[-1].iid_acc:.2f}\n")

    example = next(ex for ex in corpus.iid_val if len(ex.source) >= 6)
    tokens = example.source
    ids = corpus.vocab.encode(tokens)
    print("sentence:", " ".join(tokens))
    print("gold tree:", to_sexpr(example.tree, tokens), "\n")

    # threshold 0 restricts every layer: spans are scored against a fully
    # context-free rebuild of themselves.  Higher thresholds let early layers
    # peek at the context before the restriction kicks in.
    for t in (0, 1):
        chart = build_sci_chart(model, ids, t)
        print(f"--- chart at threshold {t} (0 = span already context-free)")
        show_chart(chart, tokens)

        greedy = greedy_project(chart, rng=0, samples_per_node=4)
        exact_tree, exact_cost = exact_project(chart)
        print(f"  greedy tree : {to_sexpr(greedy.tree, tokens)}")
        print(f"                cumulative {greedy.cumulative_sci:.4f}, "
              f"score vs random splits {greedy.normalized_score:+.4f}")
        print(f"  exact tree  : {to_sexpr(exact_tree, tokens)}")
        print(f"                cumulative {exact_cost:.4f} "
              f"(greedy pays {greedy.cumulative_sci - exact_cost:+.4f})")
        gold_cost = cumulative_sci(chart, example.tree)
        print(f"  gold tree   : cumulative {gold_cost:.4f}\n")


if __name__ == "__main__":
    main()
