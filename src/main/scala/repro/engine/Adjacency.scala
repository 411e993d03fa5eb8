package repro.engine

import scala.collection.mutable.ArrayBuffer

/** Hornet-style dynamic adjacency for one graph — the substrate the paper
  * builds on (supplement §9.1): per-vertex growable primitive arrays with
  * O(1) amortised append and O(1) delete-and-swap, plus a dst → slots
  * multimap in insertion (timestamp) order so deleting a duplicated edge
  * removes the earliest surviving instance.
  *
  * Vertices are dense Int ids in [0, numVertices). Each per-vertex structure
  * is touched by at most one thread at a time (updates are routed by source
  * vertex), so no locking is needed — mirroring the GPU design where one
  * block owns one vertex's update list.
  */
final class Adjacency(val numVertices: Int) extends Serializable {

  final class VertexAdj extends Serializable {
    var dst: Array[Int] = new Array[Int](2)
    var bias: Array[Double] = new Array[Double](2)
    var len: Int = 0
    val slotsByDst = new java.util.HashMap[Int, ArrayBuffer[Int]]()

    def insert(d: Int, w: Double): Unit = {
      if (len == dst.length) {
        dst = java.util.Arrays.copyOf(dst, len * 2)
        bias = java.util.Arrays.copyOf(bias, len * 2)
      }
      dst(len) = d
      bias(len) = w
      var buf = slotsByDst.get(d)
      if (buf == null) { buf = new ArrayBuffer[Int](1); slotsByDst.put(d, buf) }
      buf += len
      len += 1
    }

    /** Delete the earliest surviving instance of (v → d); false if absent. */
    def delete(d: Int): Boolean = {
      val buf = slotsByDst.get(d)
      if (buf == null || buf.isEmpty) return false
      val slot = buf.remove(0)
      if (buf.isEmpty) slotsByDst.remove(d)
      val last = len - 1
      if (slot != last) {
        val movedDst = dst(last)
        dst(slot) = dst(last)
        bias(slot) = bias(last)
        val mb = slotsByDst.get(movedDst)
        mb(mb.indexOf(last)) = slot
      }
      len -= 1
      true
    }

    def contains(d: Int): Boolean = { val b = slotsByDst.get(d); b != null && b.nonEmpty }

    def totalBias: Double = { var s = 0.0; var i = 0; while (i < len) { s += bias(i); i += 1 }; s }

    def deepCopy: VertexAdj = {
      val c = new VertexAdj
      c.dst = java.util.Arrays.copyOf(dst, dst.length)
      c.bias = java.util.Arrays.copyOf(bias, bias.length)
      c.len = len
      slotsByDst.forEach((k, v) => c.slotsByDst.put(k, v.clone()))
      c
    }

    def memoryBytes: Long = dst.length.toLong * (4 + 8) + slotsByDst.size().toLong * 24
  }

  val vertices: Array[VertexAdj] = Array.fill(numVertices)(new VertexAdj)

  def outDegree(v: Int): Int = vertices(v).len
  def hasEdge(u: Int, v: Int): Boolean = vertices(u).contains(v)
  def insert(u: Int, v: Int, w: Double): Unit = vertices(u).insert(v, w)
  def delete(u: Int, v: Int): Boolean = vertices(u).delete(v)
}
