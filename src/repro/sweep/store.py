"""The streaming JSONL result store of scenario sweeps.

Sweep runs can produce tens of thousands of result rows; holding them all in
memory (the failure mode of the old ``node_configuration_sweep`` dict) does
not scale and loses everything on a crash.  The store appends as the
sweep goes: one record (:meth:`ResultStore.append`) or one record block —
the rows of one template group (:meth:`ResultStore.append_block`) — is
rendered to complete lines and written in one ``os.write``, so memory
stays bounded by the largest group regardless of sweep size.  A store is
always JSONL (a ``.jsonl``, ``.ndjson`` or ``.json`` file); CSV is a
one-shot export of a finished store (:func:`export_csv`, ``eco-chip
export``).

Reloaded records wrap into :class:`SweepRow` objects, the
``objective(name)`` protocol :func:`repro.core.explorer.pareto_front` reads
and the points of :meth:`repro.api.Session.explore`.  A row wraps its
record dict without copying it, and ``pareto_front`` reads the objective
columns of such rows straight from the dicts.

Every JSONL reader decodes a line with one strict decoder: the JSON C
scanner called directly, which must consume the whole (stripped) line;
on any failure ``json.loads`` runs to raise its exact error.  The id-only
scan (:func:`completed_scenario_ids`) validates every line with the same
scanner but builds no float and keeps no record: only the ``scenario`` id
is read, and a line whose id is not a plain int or ``null`` is decoded in
full to convert it exactly as a record's id is.  Resume itself reads the
full records once (:meth:`repro.sweep.engine.SweepEngine.run` with
``resume=``), since the stored rows are checked against the run's columns
and fold into the resumed run's summary.

Three properties make the store safe for a multi-job server
(:mod:`repro.serve`) where several sweeps stream to sibling files at once,
and for resume after a crash:

* **Whole-line appends** — every append renders all of its lines to bytes
  first and writes them with one ``os.write`` to an ``O_APPEND``
  descriptor, continued until every byte is written (a short write — disk
  full, file-size limit, a signal — is finished, never silently dropped,
  so the next append cannot weld onto a partial line).
* **Crash leaves a valid prefix** — a killed run leaves complete lines plus
  at most one torn tail line, whichever append (a record or a whole block)
  it interrupted; :func:`repair_torn_tail` removes the tail before resume.
* **Single-writer ownership** — opening a store for writing acquires a
  sidecar ``<path>.lock`` pid file; a second live writer gets
  :class:`StoreLockError` instead of silently corrupting the stream, and a
  lock left behind by a killed process is reclaimed automatically.

The JSONL bytes are exactly ``json.dumps(record, sort_keys=True) + "\\n"``
per row.  A block renders its shared values once into constant text
segments and each distinct value of a column once, then emits all its
lines with one join over the segments and the per-row column texts; any
column the fast path cannot prove byte-equal (NaN or infinite floats,
mixed types such as ``100000`` next to ``100000.0``, lists, booleans) is
encoded with :func:`json.dumps` value by value, and a one-row block or
one with non-string keys takes the per-record path.
"""

from __future__ import annotations

import csv
import errno
import json
import math
import os
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Union,
)

from repro.sweep.block import RecordBlock

PathLike = Union[str, Path]


class StoreLockError(RuntimeError):
    """Another live process (or store object) owns the store's write lock."""


# ---------------------------------------------------------------------------
# Single-writer sidecar locks
# ---------------------------------------------------------------------------
def _store_lock_path(path: Path) -> Path:
    return path.with_name(path.name + ".lock")


def _lock_holder_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign-owned pid exists
        return True
    return True


def _acquire_store_lock(path: Path) -> Path:
    """Create ``<path>.lock`` containing our pid, atomically.

    The pid is first written to a private temp file which is then
    ``os.link``-ed to the lock name — link either succeeds (lock acquired,
    content already complete) or raises ``FileExistsError`` (someone holds
    it); there is no window where the lock exists empty.  A lock whose pid
    no longer maps to a live process is a crash leftover and is reclaimed.
    """
    lock_path = _store_lock_path(path)
    tmp_path = lock_path.with_name(f"{lock_path.name}.{os.getpid()}.tmp")
    tmp_path.write_text(f"{os.getpid()}\n", encoding="utf-8")
    try:
        for _ in range(2):
            try:
                os.link(tmp_path, lock_path)
                return lock_path
            except FileExistsError:
                try:
                    holder = int(lock_path.read_text(encoding="utf-8").strip())
                except (OSError, ValueError):
                    holder = None
                if holder is not None and _lock_holder_alive(holder):
                    raise StoreLockError(
                        f"store {path} is locked by pid {holder}; a result store "
                        f"has exactly one writer (pass exclusive=False only for "
                        f"stores guarded externally)"
                    )
                # Dead holder (crashed run): reclaim and retry once.
                try:
                    lock_path.unlink()
                except FileNotFoundError:
                    pass
        raise StoreLockError(f"store {path} lock contended: {lock_path}")
    finally:
        try:
            tmp_path.unlink()
        except FileNotFoundError:
            pass


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------
class ResultStore:
    """Append records to a JSONL file incrementally, one object per line.

    Each append writes its bytes to an ``O_APPEND`` descriptor in one
    ``os.write``, continued until every byte is on disk, so a killed run
    leaves at most one torn *tail* line behind (repairable via
    :func:`repair_torn_tail`), never an interleaved or mid-file torn line.

    Args:
        path: Store file to create or extend.
        append: Extend an existing file instead of truncating.
        exclusive: Acquire the single-writer ``<path>.lock`` sidecar
            (default).  Pass ``False`` only when ownership is already
            guaranteed by the caller (e.g. a worker writing to a store its
            coordinator locked).
    """

    def __init__(self, path: PathLike, append: bool = False, exclusive: bool = True):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock_path: Optional[Path] = None
        if exclusive:
            self._lock_path = _acquire_store_lock(self.path)
        flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
        if not append:
            flags |= os.O_TRUNC
        try:
            self._fd: Optional[int] = os.open(self.path, flags, 0o644)
        except OSError:
            self._release_lock()
            raise
        self.count = 0

    def append(self, record: Mapping[str, Any]) -> None:
        """Write one record as one whole line."""
        self._check_open()
        self._write(_jsonl_line(record).encode("utf-8"))
        self.count += 1

    def append_block(self, block: RecordBlock) -> None:
        """Write every row of ``block``, in row order, with one write."""
        self._check_open()
        if block.size:
            self._write(_jsonl_block(block).encode("utf-8"))
            self.count += block.size

    def _check_open(self) -> None:
        if self._fd is None:
            raise ValueError(f"store {self.path} is closed")

    def _write(self, data: bytes) -> None:
        """``os.write`` all of ``data``, continuing after a short write.

        A short write that went unnoticed would leave a partial line
        mid-file for the next append to weld onto; continuing it keeps the
        stream whole (an error still raises, leaving only a torn tail).
        """
        view = memoryview(data)
        while view:
            written = os.write(self._fd, view)
            if written <= 0:
                raise OSError(errno.EIO, f"write to store {self.path} made no progress")
            view = view[written:]

    def _release_lock(self) -> None:
        if self._lock_path is not None:
            try:
                self._lock_path.unlink()
            except FileNotFoundError:
                pass
            self._lock_path = None

    def close(self) -> None:
        """Close the descriptor and release the writer lock (idempotent)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        self._release_lock()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _jsonl_line(record: Mapping[str, Any]) -> str:
    return json.dumps(dict(record), sort_keys=True) + "\n"


def _jsonl_block(block: RecordBlock) -> str:
    """The JSONL lines of ``block``, byte-equal to :func:`_jsonl_line` per row.

    The keys are walked once, sorted (as ``sort_keys`` does): shared values
    are inlined into constant text segments, and each varying column adds
    one constant text or one text per row.  The block is then one join
    over the segments and columns, row by row.
    """
    shared, size = block.shared, block.size
    if size == 1 or not all(type(key) is str for key in shared):
        return "".join(map(_jsonl_line, block.records()))
    columns = dict(zip(block.varying, zip(*block.rows)))
    pieces: List[Iterable[str]] = []
    text, separator = "{", ""
    for key in sorted(shared):
        text += separator + _encode_str(key) + ": "
        separator = ", "
        column = columns.get(key)
        if column is None:
            value = json.dumps(shared[key], sort_keys=True)
        else:
            value = _column_text(column)
        if type(value) is str:  # the same JSON text on every row
            text += value
        else:
            pieces += (repeat(text, size), value)
            text = ""
    pieces.append(repeat(text + "}\n", size))
    return "".join(chain.from_iterable(zip(*pieces)))


def _column_text(column: Sequence[Any]) -> Union[str, Iterable[str]]:
    """The JSON text of one per-row column.

    Returns one text when every row encodes to the same text, else the
    texts row by row: ``repr`` for ints and for finite floats without
    repeats (their ``repr`` is their JSON text), a repeated float or
    string encoded once, and :func:`json.dumps` value by value otherwise.
    """
    kinds = set(map(type, column))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float and math.isfinite(sum(column)):
        distinct = set(column)
        # 0.0 and -0.0 are one set member but two JSON texts.
        if len(distinct) == len(column) or 0.0 in distinct:
            return map(float.__repr__, column)
        encode = float.__repr__
    elif kind is str:
        distinct = set(column)
        encode = _encode_str
    elif kind is int:
        return map(int.__repr__, column)
    elif kind is type(None):
        return "null"
    else:
        return [json.dumps(value, sort_keys=True) for value in column]
    if len(distinct) == 1:
        return encode(distinct.pop())
    encoded = {value: encode(value) for value in distinct}
    return map(encoded.__getitem__, column)


#: File suffixes of a result store: every store is JSONL.
_STORE_SUFFIXES = frozenset({".jsonl", ".ndjson", ".json"})


def check_store_suffix(path: PathLike) -> Path:
    """``path`` as a :class:`~pathlib.Path`; a :class:`ValueError` unless
    its suffix is a store's.  Runs before a store file is opened or
    repaired: read as JSONL, a CSV file's last row would fail to decode
    and be truncated as a torn tail."""
    target = Path(path)
    key = target.suffix.lower()
    if key not in _STORE_SUFFIXES:
        message = f"unknown result-store format {key!r}; known formats: {sorted(_STORE_SUFFIXES)}"
        if key == ".csv":
            message += (
                "; a result store is JSONL: write one and convert it with "
                "`eco-chip export STORE OUT.csv`"
            )
        raise ValueError(message)
    return target


def open_store(path: PathLike, append: bool = False, exclusive: bool = True) -> ResultStore:
    """Open the JSONL store at ``path`` for writing.

    Raises:
        ValueError: for a path without a store suffix
            (:func:`check_store_suffix`).
        StoreLockError: when ``exclusive`` and another live writer owns the
            store's lock.
    """
    return ResultStore(check_store_suffix(path), append=append, exclusive=exclusive)


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------
#: The C scanner of the default decoder: ``json.loads`` minus its wrapper.
_scan_value = json.JSONDecoder().scan_once
#: The same scanner with float text kept as text: the resume scan reads one
#: int per line, and float construction is most of a record's decode.
_scan_id_only = json.JSONDecoder(parse_float=str).scan_once
#: What a scan raises on a line ``json.loads`` rejects: ``StopIteration``
#: where no value starts, ``JSONDecodeError`` (a ``ValueError``), the
#: ``ValueError`` of an int beyond the digit limit, ``RecursionError``.
_SCAN_ERRORS = (StopIteration, ValueError, RecursionError)


def _jsonl_lines(path: Path) -> Iterator[str]:
    """The stripped, non-blank lines of a JSONL file, streamed."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield line


def _decode_line(line: str) -> Any:
    """``json.loads(line)`` of a stripped line, at the scanner's speed.

    The scan must end at the end of the line; on any failure
    :func:`json.loads` runs on the line to raise its exact error.
    """
    try:
        value, end = _scan_value(line, 0)
    except _SCAN_ERRORS:
        return json.loads(line)
    if end != len(line):
        return json.loads(line)  # raises "Extra data"
    return value


def _scenario_of(record: Mapping[str, Any]) -> Optional[int]:
    """The ``scenario`` id of a record as an int (``None``: no id)."""
    scenario_id = record.get("scenario")
    return None if scenario_id is None else int(scenario_id)


def _scenario_id_of_line(line: str) -> Optional[int]:
    """``_scenario_of(_decode_line(line))``, building no float.

    The line is fully validated by the scanner, with float text kept as
    text.  An id that scans as anything but an int or ``null`` (a float, a
    bool, a string or a nested value) falls back to the full decode, as
    does any line the fast scan does not take whole.
    """
    try:
        record, end = _scan_id_only(line, 0)
    except _SCAN_ERRORS:
        end = -1
    if end == len(line) and type(record) is dict:
        scenario_id = record.get("scenario")
        if scenario_id is None or type(scenario_id) is int:
            return scenario_id
    return _scenario_of(_decode_line(line))


def _decode_tolerating_torn_tail(path: Path, decode: Callable[[str], Any]) -> Iterator[Any]:
    """``decode`` of every JSONL line, dropping an undecodable last line.

    Streams with one line of lookahead (constant memory): a line is only
    decoded strictly once a later non-blank line proves it is not the
    tail.  Only a :class:`json.JSONDecodeError` of the tail is forgiven.
    """
    previous: Optional[str] = None
    for line in _jsonl_lines(path):
        if previous is not None:
            yield decode(previous)  # strict: not the last line
        previous = line
    if previous is not None:
        try:
            value = decode(previous)
        except json.JSONDecodeError:
            return  # torn tail of a crashed run: treat as unwritten
        yield value


def iter_records(path: PathLike) -> Iterator[Dict[str, Any]]:
    """Stream records back from a store file."""
    return map(_decode_line, _jsonl_lines(Path(path)))


def load_records(path: PathLike) -> List[Dict[str, Any]]:
    """All records of a store file as a list of dicts."""
    return list(iter_records(path))


def _nonempty_store(source: Union["ResultStore", PathLike]) -> Optional[Path]:
    """The path of ``source``, or ``None`` when it is missing or empty."""
    path = source.path if isinstance(source, ResultStore) else Path(source)
    if not path.is_file() or path.stat().st_size == 0:
        return None
    return path


def completed_scenario_ids(source: Union["ResultStore", PathLike]) -> Set[int]:
    """Scenario ids already present in a store file (resume support).

    Accepts a :class:`ResultStore` or a path; a missing or empty file means
    nothing has been evaluated yet.  Records without a ``scenario`` field
    (foreign files) are ignored.

    A crash can tear the *last* line mid-write (disk full, SIGKILL);
    since resume exists to rescue exactly such runs, an undecodable final
    line is treated as not-yet-evaluated rather than an error.  A torn line
    anywhere else still raises — that is real corruption, not a crash tail.
    Every line is validated in full, but no record is built: only
    the id is read (:func:`_scenario_id_of_line`).
    """
    path = _nonempty_store(source)
    if path is None:
        return set()
    ids = set(_decode_tolerating_torn_tail(path, _scenario_id_of_line))
    ids.discard(None)
    return ids


def records_by_scenario(
    source: Union["ResultStore", PathLike],
) -> Dict[int, Dict[str, Any]]:
    """``{scenario id: record}`` of a store file, tolerating a torn tail.

    The replay side of search resume (:mod:`repro.search`): a killed run's
    store is reloaded so already-evaluated candidates are served from their
    stored rows instead of re-evaluating.  Uses the same crash-tolerant
    iteration as :func:`completed_scenario_ids` — an undecodable final line
    counts as unwritten — and keeps the *first* record per scenario id, the
    one a sequential reader (and therefore a resumed byte-compare) sees.
    Records without a ``scenario`` field are skipped.
    """
    path = _nonempty_store(source)
    records: Dict[int, Dict[str, Any]] = {}
    if path is None:
        return records
    for record in _decode_tolerating_torn_tail(path, _decode_line):
        scenario_id = _scenario_of(record)
        if scenario_id is not None:
            records.setdefault(scenario_id, record)
    return records


#: How far back repair_torn_tail looks for the final line boundary.
_TAIL_CHUNK_BYTES = 1 << 20


def repair_torn_tail(source: Union["ResultStore", PathLike]) -> bool:
    """Repair the tail of a store left behind by a crash.

    Appending to a file whose last write was torn would weld the next
    record onto the torn fragment and corrupt the stream, so resume paths
    call this before reopening a store for append.  Two crash artifacts are
    handled, both touching only the final line:

    * an unparseable final line (torn mid-record: undecodable JSON) is
      truncated away;
    * a parseable final line missing its terminating newline (torn between
      the record and the line ending) gets the terminator appended.

    Intact files are left untouched.  The suffix is checked first
    (:func:`check_store_suffix`), so a file of another format is never
    truncated.

    Returns:
        True when the tail was repaired.

    Raises:
        ValueError: for a path without a store suffix.
    """
    path = check_store_suffix(source.path if isinstance(source, ResultStore) else source)
    if not path.is_file():
        return False
    size = path.stat().st_size
    if size == 0:
        return False
    with open(path, "rb") as handle:
        if size > _TAIL_CHUNK_BYTES:
            handle.seek(size - _TAIL_CHUNK_BYTES)
        data = handle.read()
    offset = size - len(data)
    stripped = data.rstrip(b"\r\n\t ")
    if not stripped:
        return False
    newline_index = stripped.rfind(b"\n")
    if newline_index < 0 and offset > 0:
        return False  # last line longer than the tail window: don't guess
    last_line = stripped[newline_index + 1 :]
    try:
        json.loads(last_line.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        keep = offset + (0 if newline_index < 0 else newline_index + 1)
        with open(path, "rb+") as handle:
            handle.truncate(keep)
        return True
    if data.endswith(b"\n"):
        return False
    # Complete record, torn newline: terminate it so appends start fresh.
    with open(path, "ab") as handle:
        handle.write(b"\n")
    return True


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------
def _csv_field(value: Any) -> Any:
    """A list as ``;``-joined text (a trailing ``;`` marks a one-element
    list); any other value as it is."""
    if isinstance(value, list):
        text = ";".join(map(str, value))
        return text + ";" if len(value) == 1 else text
    return value


def export_csv(store: PathLike, out: PathLike) -> int:
    """Write the records of ``store`` to the CSV file ``out``.

    The header is the sorted union of every record's keys, found by a
    first pass over the store, so a column only some rows carry (a
    contained failure's ``error``) is kept wherever those rows fall; a
    row without the column, or with ``null``, leaves the field empty.
    Both passes stream the store (constant memory) and, as resume does,
    drop an undecodable last line: the torn tail of a crashed run.  The
    CSV is written beside ``out`` and renamed into place, so a failed
    export leaves no partial file.

    Returns:
        The number of rows written.

    Raises:
        ValueError: when ``out`` lacks a ``.csv`` suffix, or a line before
            the last is not a JSON object.
        OSError: when ``store`` cannot be read or ``out`` written.
    """
    source, target = Path(store), Path(out)
    if target.suffix.lower() != ".csv":
        raise ValueError(f"export writes CSV: {target} needs a .csv suffix")
    columns: Set[str] = set()
    for record in _decode_tolerating_torn_tail(source, _decode_line):
        if type(record) is not dict:
            raise ValueError(f"{source}: a store line is not a JSON object")
        columns.update(record)
    partial = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    count = 0
    try:
        with open(partial, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=sorted(columns), restval="")
            writer.writeheader()
            for record in _decode_tolerating_torn_tail(source, _decode_line):
                writer.writerow({key: _csv_field(value) for key, value in record.items()})
                count += 1
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return count


# ---------------------------------------------------------------------------
# Row adapter for Pareto / summary analysis
# ---------------------------------------------------------------------------
class SweepRow:
    """A sweep record behind the ``objective(name)`` protocol.

    The objective names are the record's numeric columns
    (:data:`repro.sweep.engine.NUMERIC_COLUMNS`), so rows feed straight into
    :func:`repro.core.explorer.pareto_front`; they are also the points of
    :class:`repro.api.ExploreResult`.  A row wraps its record without
    copying it: ``row.record`` is the mapping it was given.
    """

    __slots__ = ("record",)

    def __init__(self, record: Mapping[str, Any]):
        self.record = record

    @property
    def label(self) -> str:
        """Readable identifier reconstructed from the record.

        Packaging parameters and axis overrides (the ``packaging_params``
        and ``overrides`` record columns, canonical JSON written by every
        record path) are appended verbatim so rows of a multi-knob sweep
        stay distinguishable in Pareto/top-N listings.
        """
        nodes = self.record.get("nodes")
        if isinstance(nodes, (list, tuple)):
            node_text = "(" + ",".join(f"{float(n):g}" for n in nodes) + ")"
        else:
            node_text = str(self.record.get("base", "?"))
        label = f"{node_text}/{self.record.get('packaging', '?')}"
        for column in ("packaging_params", "overrides"):
            text = self.record.get(column)
            if text:
                label = f"{label}/{text}"
        return label

    def objective(self, name: str) -> float:
        """Value of the named objective (smaller is better)."""
        value = self.record.get(name)
        if value is None:
            raise KeyError(
                f"record has no objective {name!r}; known fields: {sorted(self.record)}"
            )
        return float(value)

    @staticmethod
    def objective_columns(
        rows: Sequence[Any], names: Sequence[str]
    ) -> Optional[List[List[float]]]:
        """``[[row.objective(name) for row in rows] for name in names]``,
        read straight from the record dicts.

        :func:`repro.core.explorer.pareto_front` asks the points' class for
        this batch form.  It answers only when every row is a plain
        ``SweepRow`` over a ``dict`` and every value is a ``float`` (for
        which :meth:`objective` is the identity); otherwise it returns
        ``None`` and the caller takes :meth:`objective` row by row, which
        converts the value or raises its error.
        """
        if set(map(type, rows)) - {SweepRow}:
            return None
        records = [row.record for row in rows]
        if set(map(type, records)) - {dict}:
            return None
        try:
            columns = [list(map(itemgetter(name), records)) for name in names]
        except (KeyError, TypeError):
            return None
        if any(set(map(type, column)) - {float} for column in columns):
            return None
        return columns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepRow({self.record.get('scenario')}, {self.label})"


def rows_from_records(records: Iterable[Mapping[str, Any]]) -> List[SweepRow]:
    """Wrap record mappings into :class:`SweepRow` objects (no copies)."""
    return list(map(SweepRow, records))


def load_rows(path: PathLike) -> List[SweepRow]:
    """Load a store file directly into :class:`SweepRow` objects."""
    return rows_from_records(load_records(path))
