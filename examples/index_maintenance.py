"""JDewey maintenance and on-disk index formats.

Demonstrates the parts of the paper outside query processing: gap-based
insertion into the JDewey numbering (section III-A), the partial
re-encode when a gap overflows, the two column-compression schemes
(section III-D), and the serialized index sizes of Table I.

Run with::

    python examples/index_maintenance.py
"""

from repro import XMLDatabase
from repro.index import storage
from repro.index.compression import choose_codec, uncompressed_size
from repro.index.lazydisk import LazyColumnarIndex
from repro.xmltree.tree import Node

DOC = """
<dblp>
  <conference><name>icde</name>
    <year>2010
      <paper><title>xml keyword search</title></paper>
      <paper><title>top-k join processing</title></paper>
    </year>
  </conference>
  <conference><name>vldb</name>
    <year>2010
      <paper><title>column stores and compression</title></paper>
    </year>
  </conference>
</dblp>
"""


def dump_levels(tree) -> None:
    by_level = {}
    for node in tree.nodes:
        by_level.setdefault(len(node.jdewey), []).append(node.jdewey[-1])
    for level in sorted(by_level):
        print(f"  level {level}: {sorted(by_level[level])}")


def main() -> None:
    db = XMLDatabase.from_xml_text(DOC, jdewey_gap=2)
    tree, encoder = db.tree, db.encoder
    print("JDewey numbers per level (jdewey_gap=2 reserves two spare "
          "slots per parent):")
    dump_levels(tree)

    # Cheap insertion: the reserved slot absorbs the new paper.
    year = tree.find_all(lambda n: n.tag == "year")[0]
    paper = Node("paper")
    paper.add_child(Node("title", "a freshly inserted paper"))
    encoder.insert(year, paper)
    encoder.validate()
    print(f"\ninserted one paper; re-encodes so far: "
          f"{encoder.reencode_count}")

    # Overflow: exhaust the gap and watch the partial re-encode.
    for i in range(4):
        extra = Node("paper")
        extra.add_child(Node("title", f"overflow paper {i}"))
        encoder.insert(year, extra)
    encoder.validate()
    print(f"inserted four more; re-encodes now: {encoder.reencode_count}")
    print("numbers after the partial re-encode (the overflowing subtree "
          "moved to the numeric end of each level):")
    dump_levels(tree)
    # The index is static: rebuild it from the mutated tree, keeping
    # every JDewey number, and the new papers are searchable.
    db.refresh()
    found = db.search("freshly inserted")
    print(f"after refresh: {len(found)} result(s) for 'freshly inserted'")
    assert found

    # Column compression: scheme choice follows column cardinality.
    db = XMLDatabase.generate_dblp(seed=3, n_papers=800)
    postings = db.columnar_index.term_postings("w00000")  # frequent word
    print(f"\ncolumns of the most frequent background term "
          f"(df={len(postings)}):")
    for level in range(1, postings.max_len + 1):
        column = postings.column(level)
        scheme, blob = choose_codec(column.values)
        raw = uncompressed_size(column.values)
        print(f"  level {level}: {len(column)} entries, "
              f"{column.n_distinct} distinct -> {scheme:>5} "
              f"{raw:>6}B raw / {len(blob):>5}B compressed")
    assert choose_codec(postings.column(1).values)[0] == "rle"

    # Table I in miniature: serialized sizes of every index family.
    report = storage.measure_sizes(db.columnar_index, db.inverted_index)
    print("\nindex sizes (synthetic DBLP, 800 papers):")
    for name, size in report.as_rows():
        print(f"  {name:<22}{size / 1024:>10.1f} KiB")

    # The columnar blob round-trips exactly.
    blob = storage.serialize_columnar_index(db.columnar_index)
    loaded = LazyColumnarIndex(blob, db.columnar_index.nodes)
    assert loaded.term_postings("w00000").seqs == postings.seqs
    print(f"\nserialized columnar index: {len(blob) / 1024:.1f} KiB, "
          f"round-trip OK ({len(loaded.vocabulary)} terms)")


if __name__ == "__main__":
    main()
