"""Learning third-order transitive-verb tensors on a plausibility space.

The package covers the full experimental loop at desk scale: scanning a
lemmatized corpus into co-occurrence counts, tTest-weighted and SVD-reduced
noun embeddings, per-verb datasets with frequency-bucket confounder
negatives, an Adagrad-trained K x K x 2 verb tensor classifier, an
average-Kronecker cosine baseline, and 5x2 cross-validated comparison with
the paired F-test.
"""

from .baseline import (
    KronBaselineModel,
    calibrate_cutoff,
    predict_baseline,
    score,
    train_baseline,
)
from .corpus import (
    CooccurrenceTable,
    FrequencyBuckets,
    Vocabulary,
    build_context_vocab,
    frequency_buckets,
    scan_corpus,
)
from .data import (
    IMPLAUSIBLE,
    PLAUSIBLE,
    CvSplit,
    LabeledTriple,
    VerbDataset,
    gen_confounders,
    load_positives,
    make_5x2cv_splits,
    subsample,
)
from .evaluation import (
    ComparisonVerdict,
    FoldResult,
    f1_plausible,
    f_test_5x2cv,
    learning_curve,
    roc_auc,
    run_5x2cv,
)
from .linalg import (
    SvdResult,
    cosine,
    l2_normalize_rows,
    read_tvb,
    truncated_svd,
    write_tvb,
)
from .tensor_model import (
    ForwardTrace,
    TrainConfig,
    TrainResult,
    VerbTensorModel,
    forward,
    gradients,
    init_model,
    objective,
    predict,
    predict_batch,
    train,
)
from .util import DataError, TrainingDiverged, ValidationError, VerbTensorError
from .vectors import (
    EmbeddingTable,
    SimilarityPair,
    WeightedVectorTable,
    reduce_to_embeddings,
    select_top_n,
    spearman_similarity_eval,
    ttest_weight,
)

__version__ = "0.1.0"
