"""Every JSON input either loads to a value that writes back to itself or
fails with one ValueError: the config, certificate and model files, and a
demo run's class and domain pool snapshots."""
import copy
import json
import warnings
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ctta.cli import load_config_file, main
from ctta.model import load_model, save_model
from ctta.numerics import Hyperparams
from ctta.pools import ClassPromptPool, DomainPromptPool
from ctta.stream import SeparationCertificate, StreamConfig

DEMO = Path(__file__).resolve().parent.parent / "demo"


def _load_config(path):
    hp_doc, sc_doc = load_config_file(path)
    return Hyperparams.from_dict(hp_doc), StreamConfig.from_dict(sc_doc)


def _save_config(value, path):
    hp, sc = value
    Path(path).write_text(json.dumps({**asdict(hp), **asdict(sc)}, sort_keys=True))


def _load_model(path):
    # load_model has checked the seed by the time it returns
    return load_model(path), json.loads(Path(path).read_text())["seed"]


def _save_model(value, path):
    model, seed = value
    save_model(model, path, seed=seed)


def _record_format(cls):
    return (
        lambda path: cls.from_dict(json.loads(Path(path).read_text())),
        lambda value, path: Path(path).write_text(json.dumps(value.to_dict(), sort_keys=True)),
    )


# each format's loader and writer, both of a path
FORMATS = {
    "config": (_load_config, _save_config),
    "certificate": _record_format(SeparationCertificate),
    "model": (_load_model, _save_model),
    "class": _record_format(ClassPromptPool),
    "domain": _record_format(DomainPromptPool),
}
# what an edit puts in place of a value; 7 makes entries or an entry a scalar
REPLACEMENTS = ["", None, 1e309, [], {}, [[1.0, [2.0]], []], 7]


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Each format's document, as shipped with the demo or written by a demo
    run, and a scratch directory."""
    root = tmp_path_factory.mktemp("json-inputs")
    argv = ["run", "--config", str(DEMO / "config.json"), "--stream", str(DEMO / "stream.csv"), "--seed", "7"]
    assert main(argv + ["--certificate", str(DEMO / "certificate.json"), "--out-dir", str(root / "run")]) == 0
    paths = {
        "config": DEMO / "config.json",
        "certificate": DEMO / "certificate.json",
        "model": DEMO / "model.json",
        "class": root / "run" / "pools_class_boundary_30.json",
        "domain": root / "run" / "pools_domain_boundary_30.json",
    }
    return {name: json.loads(path.read_text()) for name, path in paths.items()}, root


def _pick(data, holder):
    """A seeded (container, key) in ``holder["doc"]``: a walk down from the
    document that stops at each level with odds 1 in 3, so that every field
    of every format is drawn often, whatever its number of items."""
    container, key = holder, "doc"
    while True:
        node = container[key]
        children = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        if not children or (container is not holder and data.draw(st.integers(0, 2)) == 0):
            return container, key
        container, key = node, data.draw(st.sampled_from(children))


def _numbers(node, out):
    """Every container below ``node`` that holds a number, each with the keys
    of its numbers."""
    items = list(node.items()) if isinstance(node, dict) else list(enumerate(node)) if isinstance(node, list) else []
    keys = [key for key, value in items if isinstance(value, (int, float))]
    if keys:
        out.append((node, keys))
    for _, value in items:
        _numbers(value, out)
    return out


def _edit(data, doc):
    """``doc`` after one seeded edit: a key or item deleted, an unknown key
    added, or a value, a number, ``entries``, one entry or the document
    replaced."""
    holder = {"doc": doc}
    kinds = ["delete", "add", "replace", "replace number", "replace entries", "replace document"]
    kind = data.draw(st.sampled_from(kinds))
    value = copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS)))
    container, key = _pick(data, holder)
    numbers = _numbers(holder, [])
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if kind == "delete" and container is not holder:
        del container[key]
    elif kind == "add":
        target = container[key] if isinstance(container[key], dict) else container
        if isinstance(target, dict) and target is not holder:
            target["junk"] = value
    elif kind == "replace number" and numbers:
        # a container first, so that a short row is drawn as often as a long one
        container, keys = data.draw(st.sampled_from(numbers))
        container[data.draw(st.sampled_from(keys))] = value
    elif kind == "replace entries" and isinstance(entries, list) and entries:
        # entries itself or one entry, even odds
        if data.draw(st.booleans()):
            doc["entries"] = value
        else:
            entries[data.draw(st.integers(0, len(entries) - 1))] = value
    elif kind == "replace document":
        holder["doc"] = value
    else:
        container[key] = value
    return holder["doc"]


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_every_json_input_loads_to_itself_or_fails_with_one_value_error(documents, data):
    docs, root = documents
    name = data.draw(st.sampled_from(sorted(FORMATS)))
    load, save = FORMATS[name]
    doc = copy.deepcopy(docs[name])
    for _ in range(data.draw(st.integers(0, 3))):  # none: the document as written
        doc = _edit(data, doc)
    path = root / f"{name}.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = load(path)
        except ValueError:
            event(f"{name} refused")
            return
        event(f"{name} loaded")
        save(value, path)
        text = path.read_text()
        save(load(path), path)
    assert path.read_text() == text
