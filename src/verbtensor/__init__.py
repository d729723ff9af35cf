"""Learning third-order transitive-verb tensors on a plausibility space.

The package covers the full experimental loop at desk scale: scanning a
lemmatized corpus into co-occurrence counts, tTest-weighted and SVD-reduced
noun embeddings, per-verb datasets with frequency-bucket confounder
negatives, an Adagrad-trained K x K x 2 verb tensor classifier, an
average-Kronecker cosine baseline, and 5x2 cross-validated comparison with
the paired F-test.

Only three functions import scipy, and only ``scipy.sparse`` and
``scipy.sparse.linalg``: ``corpus.scan_corpus``,
``corpus.CooccurrenceTable.restrict`` and ``linalg.truncated_svd``.
"""

__version__ = "0.1.0"
