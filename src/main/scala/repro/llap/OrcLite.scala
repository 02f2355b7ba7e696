package repro.llap

import java.io._

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import org.apache.spark.util.sketch.BloomFilter

/** Per-(row group, column) index entry: min/max plus an optional Bloom
  * filter over integral values — the structures the I/O elevator uses to
  * "skip reading entire column and row groups" (§5.1).
  */
final case class ChunkIndex(
    offset: Long,
    length: Int,
    rows: Int,
    min: Option[Double],
    max: Option[Double],
    bloom: Option[BloomFilter]) extends Serializable

/** File metadata: schema, row-group index, and file identity. Cached by
  * LLAP even for data that was never in the data cache, so predicates are
  * evaluated before any chunk misses are issued. */
final case class OrcLiteMeta(
    path: String,
    fileKey: String, // path + length + mtime — the ETag-like identity (§5.1)
    schema: StructType,
    rowGroups: Int,
    index: Array[Array[ChunkIndex]]) extends Serializable { // [rowGroup][column]
  def rowsInGroup(rg: Int): Int = index(rg)(0).rows
  def totalRows: Long = (0 until rowGroups).map(rowsInGroup(_).toLong).sum
}

/** OrcLite: the columnar file format backing the LLAP path.
  *
  * Layout: MAGIC, schema JSON, then column chunks (one per row group x
  * column, individually encoded via [[ColumnVec]]), then a footer holding
  * the per-chunk index (offset/length/min/max/Bloom), then the footer
  * offset. Chunks are independently addressable, which is what makes the
  * (row group, column) chunk the cache unit.
  */
object OrcLite {
  private val Magic = 0x0c11fe01
  val DefaultRowGroupSize = 8192

  /** Writes `rows` to `path`; returns the number of row groups written. */
  def write(path: File, schema: StructType, rows: Iterator[Row],
            rowGroupSize: Int = DefaultRowGroupSize): Int = {
    require(rowGroupSize > 0)
    val fields = schema.fields
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(path)))
    val index = scala.collection.mutable.ArrayBuffer[Array[ChunkIndex]]()
    var offset = 0L
    try {
      out.writeInt(Magic)
      val schemaBytes = schema.json.getBytes("UTF-8")
      out.writeInt(schemaBytes.length); out.write(schemaBytes)
      offset = 8L + schemaBytes.length

      val grouped = rows.grouped(rowGroupSize)
      while (grouped.hasNext) {
        val group = grouped.next()
        val entries = new Array[ChunkIndex](fields.length)
        var c = 0
        while (c < fields.length) {
          val f = fields(c)
          val b = new ColumnVec.Builder(f.dataType, group.size)
          var mn = Double.NaN; var mx = Double.NaN
          val distinct = scala.collection.mutable.Set[Long]()
          group.foreach { r =>
            val v = r.get(c)
            if (v == null) b.appendNull()
            else f.dataType match {
              case LongType    => val x = v.asInstanceOf[Long]; b.appendLong(x); mn = nanMin(mn, x.toDouble); mx = nanMax(mx, x.toDouble); distinct += x
              case IntegerType => val x = v.asInstanceOf[Int].toLong; b.appendLong(x); mn = nanMin(mn, x.toDouble); mx = nanMax(mx, x.toDouble); distinct += x
              case DateType =>
                // Row dates surface as java.sql.Date or java.time.LocalDate
                // depending on spark.sql.datetime.java8API.enabled.
                val x = v match {
                  case d: java.sql.Date        => d.toLocalDate.toEpochDay
                  case d: java.time.LocalDate  => d.toEpochDay
                  case other => throw new IllegalArgumentException(s"bad date value: $other")
                }
                b.appendLong(x); mn = nanMin(mn, x.toDouble); mx = nanMax(mx, x.toDouble); distinct += x
              case DoubleType  => val x = v.asInstanceOf[Double]; b.appendDouble(x); mn = nanMin(mn, x); mx = nanMax(mx, x)
              case StringType  => b.appendString(v.asInstanceOf[String])
              case other       => throw new IllegalArgumentException(s"unsupported: $other")
            }
          }
          val bloom =
            if (ColumnVec.isIntegral(f.dataType) && distinct.nonEmpty) {
              val bf = BloomFilter.create(distinct.size.toLong, 0.03)
              distinct.foreach(bf.putLong)
              Some(bf)
            } else None
          val bytes = encodeChunk(b.result())
          out.write(bytes)
          entries(c) = ChunkIndex(offset, bytes.length, group.size,
            if (mn.isNaN) None else Some(mn), if (mx.isNaN) None else Some(mx), bloom)
          offset += bytes.length
          c += 1
        }
        index += entries
      }

      // footer: Java-serialized index (metadata volume is tiny next to data)
      val footerBytes = serialize(index.toArray)
      out.write(footerBytes)
      out.writeLong(offset) // footer offset
      out.writeInt(footerBytes.length)
      out.writeInt(Magic)
      index.size
    } finally out.close()
  }

  /** Reads only the footer/metadata — the first thing LLAP caches. */
  def readMeta(path: File): OrcLiteMeta = {
    val raf = new RandomAccessFile(path, "r")
    try {
      raf.seek(raf.length() - 16)
      val footerOffset = raf.readLong()
      val footerLen = raf.readInt()
      require(raf.readInt() == Magic, s"bad OrcLite trailer in $path")
      raf.seek(0)
      require(raf.readInt() == Magic, s"bad OrcLite header in $path")
      val schemaLen = raf.readInt()
      val schemaBytes = new Array[Byte](schemaLen); raf.readFully(schemaBytes)
      val schema = DataType.fromJson(new String(schemaBytes, "UTF-8")).asInstanceOf[StructType]
      raf.seek(footerOffset)
      val footerBytes = new Array[Byte](footerLen); raf.readFully(footerBytes)
      val index = deserialize[Array[Array[ChunkIndex]]](footerBytes)
      OrcLiteMeta(path.toString, fileKey(path), schema, index.length, index)
    } finally raf.close()
  }

  /** Reads and decodes one (row group, column) chunk from disk. */
  def readChunk(meta: OrcLiteMeta, rowGroup: Int, column: Int): ColumnVec = {
    val entry = meta.index(rowGroup)(column)
    val raf = new RandomAccessFile(meta.path, "r")
    try {
      raf.seek(entry.offset)
      val bytes = new Array[Byte](entry.length)
      raf.readFully(bytes)
      ColumnVec.decode(new DataInputStream(new ByteArrayInputStream(bytes)))
    } finally raf.close()
  }

  /** ETag-like identity: path + length + mtime (§5.1 cache validity). */
  def fileKey(path: File): String =
    s"${path.getAbsolutePath}#${path.length()}#${path.lastModified()}"

  private def encodeChunk(vec: ColumnVec): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val dos = new DataOutputStream(bos)
    ColumnVec.encode(vec, dos)
    dos.flush()
    bos.toByteArray
  }

  private def nanMin(a: Double, b: Double): Double = if (a.isNaN) b else math.min(a, b)
  private def nanMax(a: Double, b: Double): Double = if (a.isNaN) b else math.max(a, b)

  private def serialize(o: AnyRef): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(o); oos.close()
    bos.toByteArray
  }

  private def deserialize[A](bytes: Array[Byte]): A =
    new ObjectInputStream(new ByteArrayInputStream(bytes)).readObject().asInstanceOf[A]
}
