"""Pipeline configuration: a flat INI file with four sections.

The verbs to study are one comma-separated key, ``[experiment] verbs``.
Each verb names its dataset and model files, so none may be ``.`` or ``..``
or hold a ``/`` or ``\\``.

Relative paths in ``[paths]`` resolve against the config file's directory.
All randomness in the pipeline flows from the named seeds here; nothing reads
the clock or OS entropy, so identical configs give identical outputs.
Training defaults live on ``TrainConfig``'s fields; every other default is
the fallback ``load_config`` passes when it reads the key.

Each input is checked once, where it enters: settings here, in
``load_config``, ``_check_static`` and ``TrainConfig``; file contents in the
readers (``read_*`` and ``load_model``), the row rules of every tab-separated
one in ``util.read_rows``; command-line arguments in argparse and the
``pipeline`` entry points. Code below ``pipeline`` trusts its
in-package callers and does not check again.
"""

from configparser import ConfigParser, Error as ConfigParserError
from dataclasses import dataclass, fields
from pathlib import Path

from .tensor_model import TrainConfig
from .util import ValidationError, derive_seed


@dataclass(frozen=True)
class PipelineConfig:
    config_dir: Path
    corpus: Path
    stopwords: Path
    triples: Path
    dev_pairs: Path | None
    output_dir: Path
    context_vocab_size: int
    top_n: int | None
    top_n_sweep: tuple
    svd_dims: tuple
    train: TrainConfig
    positive_cap: int
    bucket_size: int
    cv_seed: int
    data_seed: int
    curve_sizes: tuple
    curve_repeats: int
    small_cv_size: int
    verbs: tuple

    @property
    def primary_k(self) -> int:
        return self.svd_dims[0]


def _tuple_of(cast):
    """A parser of comma-separated ``cast`` values; blank entries are skipped."""
    return lambda raw: tuple(cast(part.strip()) for part in raw.split(",") if part.strip())


def load_config(path, out_override=None, seed_override=None) -> PipelineConfig:
    """Parse and sanity-check a pipeline config file.

    Relative paths inside the file resolve against the file's directory;
    ``out_override``, a command-line path, replaces the configured output
    directory and resolves against the working directory. A
    ``seed_override`` rebases every named seed deterministically, which gives
    a one-flag way to rerun the whole pipeline with fresh randomness. A key
    or section that nothing reads raises ``ValidationError``, so a misspelt
    key cannot silently leave its default in place.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    parser = ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except (ConfigParserError, UnicodeDecodeError) as exc:
        raise ValidationError(f"unreadable config file {path}: {exc}") from None
    base = path.parent
    read = set()  # (section, key) pairs looked up below; any other key is an error

    def _path(section, key, required=True):
        read.add((section, key))
        raw = parser.get(section, key, fallback="").strip()
        if not raw:
            if required:
                raise ValidationError(f"config is missing [{section}] {key}")
            return None
        candidate = Path(raw)
        return candidate if candidate.is_absolute() else (base / candidate)

    def _get(section, key, cast, default):
        read.add((section, key))
        raw = parser.get(section, key, fallback=None)
        if raw is None or not raw.strip():
            return default
        try:
            return cast(raw.strip())
        except ValueError as exc:
            raise ValidationError(f"bad value for [{section}] {key}: {raw!r}") from exc

    corpus = _path("paths", "corpus")
    stopwords = _path("paths", "stopwords")
    triples = _path("paths", "triples")
    dev_pairs = _path("paths", "dev_pairs", required=False)
    output_dir = _path("paths", "output_dir", required=not out_override)
    if out_override:
        output_dir = Path(out_override)

    training = {item.name: _get("training", item.name, type(item.default), item.default)
                for item in fields(TrainConfig)}
    cv_seed = _get("experiment", "cv_seed", int, 17)
    data_seed = _get("experiment", "data_seed", int, 23)
    if seed_override is not None:
        training["seed"] = seed_override
        cv_seed = derive_seed(seed_override, "cv")
        data_seed = derive_seed(seed_override, "data")

    try:
        train = TrainConfig(**training)
    except ValueError as exc:
        raise ValidationError(f"bad training configuration: {exc}") from exc

    svd_dims = _get("vectors", "svd_dims", _tuple_of(int), (20, 40))
    if not svd_dims or any(k < 1 for k in svd_dims):
        raise ValidationError(f"svd_dims must be positive integers, got {svd_dims}")

    config = PipelineConfig(
        config_dir=base,
        corpus=corpus,
        stopwords=stopwords,
        triples=triples,
        dev_pairs=dev_pairs,
        output_dir=output_dir,
        context_vocab_size=_get("vectors", "context_vocab_size", int, 10000),
        top_n=_get("vectors", "top_n", int, None),
        top_n_sweep=_get("vectors", "top_n_sweep", _tuple_of(int), (25, 50, 100, 200, 400)),
        svd_dims=svd_dims,
        train=train,
        positive_cap=_get("experiment", "positive_cap", int, 2000),
        bucket_size=_get("experiment", "bucket_size", int, 10),
        cv_seed=cv_seed,
        data_seed=data_seed,
        curve_sizes=_get("experiment", "curve_sizes", _tuple_of(int), (10, 50, 100, 200)),
        curve_repeats=_get("experiment", "curve_repeats", int, 5),
        small_cv_size=_get("experiment", "small_cv_size", int, 52),
        verbs=_get("experiment", "verbs", _tuple_of(str), ()),
    )
    known_sections = {section for section, _ in read}
    for section in parser.sections():
        if section not in known_sections:
            raise ValidationError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if (section, key) not in read:
                raise ValidationError(f"unknown config key [{section}] {key}")
    _check_static(config)
    return config


def _check_static(config: PipelineConfig) -> None:
    if not config.verbs:
        raise ValidationError("config needs [experiment] verbs with at least one verb")
    for verb in config.verbs:
        if verb in (".", "..") or "/" in verb or "\\" in verb:
            raise ValidationError(f"[experiment] verbs: {verb!r} cannot be a file name")
    if config.context_vocab_size < 1:
        raise ValidationError("context_vocab_size must be positive")
    if config.positive_cap < 1:
        raise ValidationError("positive_cap must be positive")
    if config.bucket_size < 1:
        raise ValidationError("bucket_size must be positive")
    if config.top_n is not None and config.top_n < 1:
        raise ValidationError("top_n must be positive when set")
    if config.small_cv_size < 4:
        raise ValidationError("small_cv_size must be at least 4")
    if not config.top_n_sweep or any(n < 1 for n in config.top_n_sweep):
        raise ValidationError(f"[vectors] top_n_sweep needs positive sizes: {config.top_n_sweep}")
    if not config.curve_sizes or any(n < 2 for n in config.curve_sizes):
        raise ValidationError(
            f"curve_sizes needs at least one size, each at least 2, got {config.curve_sizes}"
        )
    if config.curve_repeats < 1:
        raise ValidationError("curve_repeats must be positive")
    for section, key in (("vectors", "svd_dims"), ("vectors", "top_n_sweep"),
                         ("experiment", "curve_sizes"), ("experiment", "verbs")):
        values = getattr(config, key)
        if len(set(values)) != len(values):
            raise ValidationError(f"[{section}] {key} has repeated entries: {values}")


def require_input_files(config: PipelineConfig, *names) -> None:
    """Fail fast when a referenced input file is absent."""
    missing = []
    for name in names:
        value = getattr(config, name)
        if value is None:
            continue
        if not Path(value).is_file():
            missing.append(f"{name}: {value}")
    if missing:
        raise ValidationError("missing input files: " + "; ".join(missing))
