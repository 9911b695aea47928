"""The eager Dewey list builder, kept as the tests' reference.

`repro.index.inverted` derives a term's document-ordered Dewey list from
the columnar postings on first use; this is the builder it replaced --
one pass over the tree, tokenizing every node -- so the differential
tests have an independent account of what the lists must be.
"""

from typing import Dict, List, Tuple

from repro.index.tokenizer import Tokenizer
from repro.scoring.ranking import RankingModel
from repro.xmltree.tree import XMLTree


def build_dewey_lists(tree: XMLTree, tokenizer: Tokenizer = None,
                      ranking: RankingModel = None
                      ) -> Dict[str, List[Tuple[Tuple[int, ...], float]]]:
    """``term -> [(dewey, local score), ...]`` in document order."""
    tokenizer = tokenizer if tokenizer is not None else Tokenizer()
    ranking = ranking if ranking is not None else RankingModel()
    raw: Dict[str, List[Tuple[Tuple[int, ...], int, int]]] = {}
    n_docs = 0
    for node in tree.iter_document_order():
        if not node.text:
            continue
        counts = tokenizer.term_frequencies(node.text)
        if not counts:
            continue
        n_docs += 1
        node_tokens = sum(counts.values())
        for term, tf in counts.items():
            raw.setdefault(term, []).append((node.dewey, tf, node_tokens))
    return {
        term: [(dewey, ranking.scorer.score(tf, len(entries), n_docs, ntok))
               for dewey, tf, ntok in entries]
        for term, entries in raw.items()
    }
