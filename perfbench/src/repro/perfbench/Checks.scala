package repro.perfbench

import scala.collection.mutable

import repro.core.StreamEdge

/** Definition 4, checked on one reported match without the engine's code. */
object Checks {

  type Match = Map[Int, StreamEdge]

  /** Data-edge ids of `m` in the query's edge order. */
  def key(fq: FlatQuery, m: Match): Vector[Long] = Vector.tabulate(fq.m)(i => m(fq.ids(i)).id)

  /** Why `m` is not a time-constrained embedding of `fq` inside the window
    * that ends at `arrival` (and containing it), or None if it is. With a
    * null `arrival` only the span of the match is checked against |W|.
    */
  def violation(fq: FlatQuery, m: Match, arrival: StreamEdge, window: Long): Option[String] = {
    if (m.size != fq.m || !fq.ids.forall(m.contains)) return Some("match does not cover the query edges")
    val es = fq.ids.map(m)
    for (i <- 0 until fq.m if !fq.labelsFit(i, es(i))) return Some("label mismatch")
    val vMap = mutable.HashMap[Int, Long]()
    val used = mutable.HashMap[Long, Int]()
    def bind(qv: Int, dv: Long): Boolean = (vMap.get(qv), used.get(dv)) match {
      case (Some(x), _)                => x == dv
      case (None, Some(o)) if o != qv  => false
      case (None, _)                   => vMap(qv) = dv; used(dv) = qv; true
    }
    for (i <- 0 until fq.m)
      if (!bind(fq.src(i), es(i).src) || !bind(fq.dst(i), es(i).dst))
        return Some("vertex map not consistent or not injective")
    if (es.map(_.id).distinct.length != fq.m) return Some("a data edge is used twice")
    for (i <- 0 until fq.m; j <- 0 until fq.m if fq.before(i)(j) && !(es(i).ts < es(j).ts))
      return Some("timing order violated")
    val maxTs = es.map(_.ts).max
    val minTs = es.map(_.ts).min
    if (arrival == null) {
      if (maxTs - minTs >= window) return Some("span not below |W|")
    } else {
      if (!es.exists(_.id == arrival.id)) return Some("arriving edge not in the match")
      if (maxTs > arrival.ts || minTs <= arrival.ts - window) return Some("edge outside the window")
    }
    None
  }
}
