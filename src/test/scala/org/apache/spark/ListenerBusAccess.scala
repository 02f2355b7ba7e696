package org.apache.spark

/** Test access to the `private[spark]` listener bus: blocks until every
  * event posted so far has reached every listener. */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
