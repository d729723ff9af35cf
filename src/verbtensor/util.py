"""Seed derivation, seeded draws, file reading and hashing helpers used across the pipeline.

Every random decision in the pipeline flows from named integer seeds, and
sub-seeds are derived by hashing, never by wall-clock entropy, so that any
command re-run on unchanged inputs reproduces its outputs byte for byte.
``choose`` and ``shuffle`` make a batch of ``random.Random.choice`` draws or
one ``random.Random.shuffle`` in a single Python frame: the same picks, the
same permutation and the same generator state afterwards as the stdlib's,
without its two Python calls per draw.

``read_lines`` is the line source of every finite text input and reads it
whole. Only the corpus streams: ``corpus.iter_corpus_lines`` opens it and
reports an undecodable line through ``not_utf8_error``, as ``read_lines`` does.
``read_rows`` holds the row rules of every tab-separated input: empty lines
are skipped, fields are split on tabs, the field count is exact, a count is
one or more ASCII digits and a repeated key is named with its earlier line.
"""

import hashlib
from pathlib import Path


def derive_seed(*parts) -> int:
    """Derive a stable 63-bit seed from a sequence of labels and integers.

    The derivation is sha256-based and therefore identical across platforms
    and interpreter invocations, unlike ``hash()``.
    """
    key = ":".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "little") & (2**63 - 1)


def choose(rng, pools) -> list:
    """One pick from each pool, in order: ``[rng.choice(p) for p in pools]``.

    Each pick draws as ``choice`` does, by ``getrandbits`` over the pool
    size's bit length with rejection, so the picks and ``rng``'s state after
    them equal the stdlib's. An empty pool raises ``IndexError``, with the
    picks before it drawn, as ``choice`` would.
    """
    getrandbits = rng.getrandbits
    picks = []
    append = picks.append
    for pool in pools:
        n = len(pool)
        if not n:  # getrandbits(0) is 0, so the loop below would spin forever
            raise IndexError("Cannot choose from an empty sequence")
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        append(pool[r])
    return picks


def shuffle(rng, items) -> None:
    """Shuffle the list ``items`` in place exactly as ``rng.shuffle(items)`` does.

    The same Fisher-Yates swaps from the last position down, each index drawn
    as ``choice`` draws, so the permutation and ``rng``'s state after it
    equal the stdlib's.
    """
    getrandbits = rng.getrandbits
    for i in reversed(range(1, len(items))):
        n = i + 1
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        items[i], items[r] = items[r], items[i]


def sha256_file(path) -> str:
    """Hex sha256 digest of a file's contents."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class VerbTensorError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(VerbTensorError):
    """Bad configuration or inputs, detected before any real work."""


class DataError(VerbTensorError):
    """A dataset construction step cannot proceed (unknown verb, empty data)."""


class TrainingDiverged(VerbTensorError):
    """The training objective became non-finite."""


def read_lines(path) -> list:
    """The lines of a UTF-8 text file without their newlines, read in one pass.

    Newlines are translated as in text mode, so item ``i`` is line ``i + 1``
    of the file, and a file that ends in a newline ends in ``""``. A file
    that is not UTF-8 raises the ``DataError`` of ``not_utf8_error``, of kind "file".
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read().split("\n")
    except UnicodeDecodeError as exc:
        raise not_utf8_error(path, "file", exc) from None


def read_rows(path, width, key=None, count=False, parse=None):
    """The columns of a tab-separated file's rows, each row checked in this order:
    ``width`` fields (with ``None``, the first row's: a key and its values);
    with ``key=(name, n)``, first ``n`` fields that no earlier row has; with
    ``count``, a count in the last field; and ``parse(*columns)``, which maps
    the columns of any run of rows to the reader's value and raises
    ``ValueError`` for a row at fault. Last, with ``width=None``, the first
    row must hold a value. ``DataError`` names the file and the first line at
    fault, so ``parse`` must judge each row on its own. The result is
    ``parse``'s value, or else the columns, the counts as a list of ints.
    """
    lines = read_lines(path)
    rows = [line.split("\t") for line in lines if line]
    fault = None  # (row index, message) of the first row at fault; later rows are cut

    def line(i):
        return [lineno for lineno, text in enumerate(lines, start=1) if text][i]

    def counts(texts):
        try:
            if "".join(texts).isascii() and all(map(str.isdigit, texts)):
                return list(map(int, texts))  # int() fails past 4300 digits
        except ValueError:
            pass
        raise ValueError(f"count {texts[0]!r} is not an integer of ASCII digits")

    widths = list(map(len, rows))
    expected = width or (widths[0] if rows else 1)
    if widths.count(expected) != len(rows):
        i = next(i for i, n in enumerate(widths) if n != expected)
        fault = i, (f"expected {width} tab-separated fields, got {widths[i]}" if width
                    else f"expected {expected - 1} values, got {widths[i] - 1}")
        del rows[i:]
    columns = list(zip(*rows)) or [()] * expected
    if key:
        name, n = key
        keys = list(zip(*columns[:n])) if n > 1 else columns[0]
        if len(set(keys)) != len(keys):
            first = {}
            i = next(i for i, k in enumerate(keys) if first.setdefault(k, i) != i)
            fault = i, f"{name} {keys[i]!r} repeats line {line(first[keys[i]])}"
            columns = [column[:i] for column in columns]
    if count:
        ints, fault = _apply(counts, columns[-1:], fault)
        columns = [column[:len(ints)] for column in columns[:-1]] + [ints]
    value, fault = _apply(parse, columns, fault) if parse else (columns, fault)
    if fault is None and width is None and expected == 1 and rows:
        fault = 0, "row has no values"
    if fault:
        raise DataError(f"{path}:{line(fault[0])}: {fault[1]}")
    return value


def _apply(func, columns, fault):
    """``func(*columns)`` and ``fault``, or if ``func`` rejects a row, its value
    on the rows before the first such row and that row's index and message."""
    try:
        return func(*columns), fault
    except ValueError:
        for i, row in enumerate(zip(*columns)):
            try:
                func(*([field] for field in row))
            except ValueError as exc:
                return func(*(column[:i] for column in columns)), (i, str(exc))
        raise


def not_utf8_error(path, kind: str, exc: UnicodeDecodeError) -> DataError:
    """``DataError`` naming the file, its first line that is not UTF-8 (0 if
    none is) and ``kind``, what the file holds."""
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                break
        else:
            lineno = 0
    return DataError(f"{path}:{lineno}: {kind} is not UTF-8 ({exc.reason})")


def ensure_dir(path) -> Path:
    """Create the directory ``path`` and its parents, if missing, and return it.

    A path that cannot be made a directory (a file on the way, no permission)
    raises ``ValidationError`` naming the directory.
    """
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create directory {path}: {exc.strerror}") from None
    return path


def open_output(path, mode: str = "w", newline=None):
    """Open the file ``path`` for writing, UTF-8 unless ``mode`` is binary.

    A path that cannot be opened for writing (a directory in its place, no
    permission) raises ``ValidationError`` naming the file.
    """
    encoding = None if "b" in mode else "utf-8"
    try:
        return open(path, mode, encoding=encoding, newline=newline)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None
