"""Every name the traced benchmark patches still exists in the library.

``perfbench/spans.py`` wraps ``repro`` functions, methods and topology
registry fields by name.  Installing a :class:`~perfbench.spans.Recorder`
looks each one up, so renaming or deleting a wrap point fails here instead
of at the next ``perfbench/run.py --trace 1`` run.
"""

from perfbench.spans import Recorder

from repro.allreduce import get_topology, topology_names


def test_recorder_installs_and_restores_without_running():
    entries = {name: get_topology(name) for name in topology_names()}
    recorder = Recorder().install()
    recorder.restore()
    for name, entry in entries.items():
        assert get_topology(name) is entry
