"""The wrappers record every layer and leave no trace once removed."""

import repro.core.seminal
import repro.miniml.parser
from repro.core.oracle import Oracle
from repro.core.seminal import explain

import layers


def test_install_wraps_and_uninstall_restores():
    parse = repro.miniml.parser.parse_program
    check = Oracle.check
    recorder = layers.Recorder()
    installed = layers.install(recorder)
    try:
        assert installed.missing == []
        assert repro.core.seminal.parse_program is not parse
        result = repro.core.seminal.explain("let x = 1 + true")
        result.render()
    finally:
        installed.remove()
    assert repro.miniml.parser.parse_program is parse
    assert repro.core.seminal.parse_program is parse
    assert Oracle.check is check
    spans, counts = recorder.take()
    times = layers.reduce_spans(spans)
    for layer in ("lexer", "parser", "searcher", "localize", "enumerator",
                  "oracle", "infer", "keyer", "depth_probe", "ranker",
                  "messages"):
        assert times.calls.get(layer, 0) > 0, layer
    assert counts["lexer.tokens"] > 0
    assert 0 < counts["oracle.passed"] < times.calls["oracle"]


def test_missing_targets_are_reported_not_fatal():
    target = layers.Target("ghost", "repro.tree", "NoSuchThing.method")
    installed = layers.install(layers.Recorder(), [target])
    assert installed.missing == ["repro.tree:NoSuchThing.method"]
    assert installed.replaced == []


def test_uninstalled_search_is_unchanged():
    before = explain("let f x = x + 1\nlet y = f true").render()
    installed = layers.install(layers.Recorder())
    try:
        traced = explain("let f x = x + 1\nlet y = f true").render()
    finally:
        installed.remove()
    assert traced == before
