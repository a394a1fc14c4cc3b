package repro.perfbench

import scala.collection.mutable

import repro.core.{QueryGraph, StreamEdge}

/** A query flattened to arrays for the independent checks. Edge index `i`
  * is the i-th query edge in ascending id order, which is also the order
  * of the data-edge ids in a match key.
  */
final class FlatQuery(q: QueryGraph) {
  val ids: Array[Int]      = q.edges.map(_.id).sorted.toArray
  val m: Int               = ids.length
  private val byId         = q.edges.map(e => e.id -> e).toMap
  private val vLabel       = q.vertices.map(v => v.id -> v.label).toMap
  val src: Array[Int]      = ids.map(byId(_).src)
  val dst: Array[Int]      = ids.map(byId(_).dst)
  val label: Array[String] = ids.map(byId(_).label)
  val srcLabel: Array[String] = src.map(vLabel)
  val dstLabel: Array[String] = dst.map(vLabel)
  /** before(i)(j): query edge i must carry a smaller timestamp than j. */
  val before: Array[Array[Boolean]] = Array.tabulate(m, m)((i, j) => q.order((ids(i), ids(j))))

  private def lab(ql: String, dl: String): Boolean = ql == "*" || ql == dl

  def labelsFit(i: Int, e: StreamEdge): Boolean =
    lab(label(i), e.label) && lab(srcLabel(i), e.srcLabel) && lab(dstLabel(i), e.dstLabel)

  /** Order in which a backtracking search binds the query edges when it
    * starts from edge `first`: each later edge shares a vertex with an
    * earlier one (the query is weakly connected).
    */
  def searchOrder(first: Int): Array[Int] = {
    val out   = mutable.ArrayBuffer(first)
    val bound = mutable.Set(src(first), dst(first))
    while (out.size < m) {
      val next = (0 until m).find(i => !out.contains(i) && (bound(src(i)) || bound(dst(i)))).get
      out += next; bound += src(next); bound += dst(next)
    }
    out.toArray
  }
}

/** One embedding: data-edge ids in query-edge order, and where it lives. */
final case class Embedding(key: Vector[Long], lastPos: Int, minTs: Long, maxTs: Long)

/** Brute-force reference for one query over a whole stream (Definition 4
  * with the sliding window of Definition 2): every time-constrained
  * embedding whose timestamp span is below |W|. Written from the paper's
  * definitions; it shares no code with the engine's matching.
  */
final class Reference(fq: FlatQuery, stream: Vector[StreamEdge], window: Long) {

  private val edges = stream.toArray
  private val n     = edges.length

  /** Positions of the edges incident to each vertex, ascending. */
  private val incident: Map[Long, Array[Int]] = {
    val m = mutable.HashMap[Long, mutable.ArrayBuilder.ofInt]()
    for (p <- 0 until n) {
      val e = edges(p)
      m.getOrElseUpdate(e.src, new mutable.ArrayBuilder.ofInt) += p
      if (e.dst != e.src) m.getOrElseUpdate(e.dst, new mutable.ArrayBuilder.ofInt) += p
    }
    m.map { case (v, b) => v -> b.result() }.toMap
  }

  private val orders = Array.tabulate(fq.m)(fq.searchOrder)

  // State of the running search.
  private val bindE = new Array[Int](fq.m)         // query edge -> data edge position
  private val vMap  = mutable.HashMap[Int, Long]() // query vertex -> data vertex
  private val used  = mutable.HashMap[Long, Int]() // data vertex -> query vertex

  /** All embeddings, ordered by the position of their last edge. */
  val embeddings: Vector[Embedding] = {
    val out = Vector.newBuilder[Embedding]

    def bindVertex(qv: Int, dv: Long, undo: mutable.ArrayBuffer[Int]): Boolean =
      vMap.get(qv) match {
        case Some(x) => x == dv
        case None =>
          if (used.contains(dv)) false
          else { vMap(qv) = dv; used(dv) = qv; undo += qv; true }
      }
    def unbind(undo: mutable.ArrayBuffer[Int]): Unit =
      undo.foreach { qv => used.remove(vMap(qv)); vMap.remove(qv) }

    for (p <- 0 until n) {
      val last = edges(p)
      val lo   = last.ts - window // candidates need ts > lo and ts < last.ts
      for (first <- 0 until fq.m if last.src != last.dst && fq.labelsFit(first, last)) {
        val order = orders(first)
        bindE(first) = p
        val undo0 = mutable.ArrayBuffer[Int]()
        if (bindVertex(fq.src(first), last.src, undo0) && bindVertex(fq.dst(first), last.dst, undo0)) {
          def extend(d: Int): Unit =
            if (d == fq.m) {
              var minTs = last.ts
              fq.ids.indices.foreach(i => minTs = math.min(minTs, edges(bindE(i)).ts))
              out += Embedding(Vector.tabulate(fq.m)(i => edges(bindE(i)).id), p, minTs, last.ts)
            } else {
              val f      = order(d)
              val anchor = vMap.getOrElse(fq.src(f), vMap(fq.dst(f)))
              val cands  = incident(anchor)
              var c      = lowerBoundTs(cands, lo)
              while (c < cands.length && cands(c) < p) {
                val cp = cands(c)
                val e  = edges(cp)
                if (e.src != e.dst && fq.labelsFit(f, e) && fits(f, cp, order, d)) {
                  val undo = mutable.ArrayBuffer[Int]()
                  if (bindVertex(fq.src(f), e.src, undo) && bindVertex(fq.dst(f), e.dst, undo)) {
                    bindE(f) = cp
                    extend(d + 1)
                  }
                  unbind(undo)
                }
                c += 1
              }
            }
          extend(1)
        }
        unbind(undo0)
      }
    }
    out.result()
  }

  /** Edge at position `cp` for query edge `f` against the `d` edges bound
    * so far: distinct data edges, and every timing-order pair holds.
    */
  private def fits(f: Int, cp: Int, order: Array[Int], d: Int): Boolean = {
    val ts = edges(cp).ts
    var i  = 0
    while (i < d) {
      val g  = order(i)
      val gp = bindE(g)
      if (gp == cp) return false
      val gts = edges(gp).ts
      if (fq.before(g)(f) && !(gts < ts)) return false
      if (fq.before(f)(g) && !(ts < gts)) return false
      i += 1
    }
    true
  }

  /** First index in `ps` whose edge has ts > lo. */
  private def lowerBoundTs(ps: Array[Int], lo: Long): Int = {
    var a = 0; var b = ps.length
    while (a < b) {
      val mid = (a + b) >>> 1
      if (edges(ps(mid)).ts <= lo) a = mid + 1 else b = mid
    }
    a
  }

  /** Embeddings grouped by the position of their last edge. */
  lazy val byLast: Map[Int, Vector[Vector[Long]]] =
    embeddings.groupBy(_.lastPos).map { case (p, es) => p -> Reference.canon(es.map(_.key)) }

  /** Embeddings inside the live window after the edge at `pos` arrived. */
  def liveAfter(pos: Int): Vector[Vector[Long]] = {
    val now = edges(pos).ts
    embeddings.iterator
      .filter(e => e.lastPos <= pos && e.minTs > now - window)
      .map(_.key).toVector
  }
}

object Reference {
  private val keyOrdering: Ordering[Vector[Long]] = Ordering.Implicits.seqOrdering[Vector, Long]

  /** A multiset of match keys in a canonical order, for equality tests. */
  def canon(keys: Seq[Vector[Long]]): Vector[Vector[Long]] = keys.toVector.sorted(keyOrdering)
}
