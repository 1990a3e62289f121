"""Any small JSON value, as a hypothesis strategy, for fuzzing the readers
of JSON documents."""

from hypothesis import strategies as st

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
